// Command rrstudyd is the campaign service daemon: it accepts study
// jobs — any experiment rrstudy -experiment names, run at its defaults —
// over HTTP, executes them on a bounded worker pool against a
// frozen-plane topology cache, streams per-VP results as JSON lines
// while campaigns run, and checkpoints every job to a journal so a
// killed campaign resumes instead of restarting.
//
// Usage:
//
//	rrstudyd [-addr :8080] [-workers 2] [-queue 16] [-cache 4] [-data DIR]
//	         [-job-deadline 30m] [-max-retries 2] [-retry-backoff 500ms]
//	         [-journal-fsync] [-stream-timeout 30s]
//	         [-tenant-quota 0] [-tenant-rate 0] [-tenant-burst 0]
//
// Endpoints:
//
//	POST   /jobs                 submit {"experiment":"fig5","scale":0.25,...} (an unknown name lists the registered ones)
//	GET    /jobs/{id}            status + progress
//	DELETE /jobs/{id}            cancel (honored at the next checkpoint)
//	GET    /jobs/{id}/stream     live JSONL result stream
//	GET    /jobs/{id}/render     the finished table
//	POST   /schedules            recurring table1 campaign {"job":{...},"epochs":3}
//	GET    /schedules            list schedules
//	GET    /schedules/{id}       schedule status + cursor
//	DELETE /schedules/{id}       cancel the schedule and its in-flight epoch
//	GET    /schedules/{id}/diff  epoch-over-epoch reachability churn table
//	GET    /metrics              Prometheus text format
//	GET    /healthz              liveness
//	GET    /readyz               readiness (503 while draining)
//
// Submissions name a tenant via the X-Tenant header ("default" when
// absent). A tenant past -tenant-quota in-flight jobs, or out of
// -tenant-rate/-tenant-burst tokens, is refused with 429 and a
// Retry-After — per-tenant QoS, distinct from the shared-queue 503.
// Submissions beyond the queue capacity are refused with 503 (and a
// Retry-After), so a flood degrades into backpressure rather than
// memory growth. Failed attempts are classified (DESIGN.md §13):
// environmental failures — a crashed worker, a dead shard, an expired
// -job-deadline — are retried up to -max-retries times with capped
// exponential backoff, each retry resuming from the job's journal;
// deterministic failures (bad spec, topology build) fail immediately.
// SIGTERM/SIGINT drain gracefully: accepted jobs finish, new ones are
// refused, then the listener closes. A SIGKILL mid-run is also safe —
// each job's journal keeps its completed batches, and resubmitting
// with {"journal": "<path>", "resume": true} picks up where it stopped
// (DESIGN.md §11).
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"recordroute/internal/server"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("rrstudyd: ")
	var (
		addr    = flag.String("addr", ":8080", "HTTP listen address")
		workers = flag.Int("workers", 2, "campaigns executed concurrently")
		queue   = flag.Int("queue", 16, "accepted-but-not-running jobs before submissions get 503")
		cache   = flag.Int("cache", 4, "frozen topology planes kept (distinct configs)")
		data    = flag.String("data", "", "journal directory (default: <tmp>/rrstudyd)")

		deadline = flag.Duration("job-deadline", 30*time.Minute,
			"wall-clock budget per job attempt; an expired attempt is retried resuming from its journal (0 = unlimited)")
		retries = flag.Int("max-retries", 2,
			"retry budget per job for environmental failures (0 disables retries)")
		backoff = flag.Duration("retry-backoff", 500*time.Millisecond,
			"delay before a job's first retry; doubles per retry, capped at 30s")
		fsync = flag.Bool("journal-fsync", false,
			"fsync the journal after every checkpoint (crash-safe past machine crashes, at an I/O cost)")
		streamTO = flag.Duration("stream-timeout", 30*time.Second,
			"per-write deadline for /stream clients; stalled readers are dropped (0 = never)")

		tenantQuota = flag.Int("tenant-quota", 0,
			"max in-flight jobs per tenant before 429 (0 = unlimited)")
		tenantRate = flag.Float64("tenant-rate", 0,
			"token-bucket refill per tenant, submissions/second (0 = no bucket)")
		tenantBurst = flag.Float64("tenant-burst", 0,
			"token-bucket depth per tenant (0 = the rate, min 1)")
	)
	flag.Parse()

	// Config uses 0 = "the default (2)" and negative = "disabled"; at the
	// flag surface 0 means what an operator expects — no retries.
	maxRetries := *retries
	if maxRetries <= 0 {
		maxRetries = -1
	}
	streamTimeout := *streamTO
	if streamTimeout <= 0 {
		streamTimeout = -1
	}
	svc, err := server.New(server.Config{
		Workers:            *workers,
		QueueCap:           *queue,
		CacheCap:           *cache,
		DataDir:            *data,
		JobDeadline:        *deadline,
		MaxRetries:         maxRetries,
		RetryBackoff:       *backoff,
		JournalFsync:       *fsync,
		StreamWriteTimeout: streamTimeout,
		TenantQuota:        *tenantQuota,
		TenantRate:         *tenantRate,
		TenantBurst:        *tenantBurst,
	})
	if err != nil {
		log.Fatal(err)
	}

	httpSrv := &http.Server{Addr: *addr, Handler: svc.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("listening on %s (%d workers, queue %d, cache %d, deadline %v, retries %d)",
		*addr, *workers, *queue, *cache, *deadline, *retries)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case s := <-sig:
		log.Printf("%v: draining (accepted jobs finish, new ones get 503)", s)
		svc.Drain()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Printf("shutdown: %v", err)
		}
		log.Print("drained")
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
	}
}
