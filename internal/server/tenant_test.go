package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"recordroute/internal/obs"
)

func submitAs(t *testing.T, ts *httptest.Server, tenant string, spec JobSpec) *http.Response {
	t.Helper()
	body, _ := json.Marshal(spec)
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestTenantQuota429WhileOthersRun is the tenant-QoS acceptance
// criterion: a tenant over its in-flight quota gets 429 (with a
// Retry-After), NOT the 503 that means the shared service is full —
// and another tenant's submission sails through at that same moment.
func TestTenantQuota429WhileOthersRun(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueCap: 8, TenantQuota: 1})
	release := make(chan struct{})
	var once sync.Once
	s.startHook = func(*Job) { <-release }
	defer once.Do(func() { close(release) })
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// alpha's first job occupies its whole quota.
	resp := submitAs(t, ts, "alpha", smokeSpec())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("alpha #1: status %d", resp.StatusCode)
	}
	var first map[string]string
	json.NewDecoder(resp.Body).Decode(&first)
	resp.Body.Close()

	// alpha's second is over budget: 429, Retry-After set.
	resp = submitAs(t, ts, "alpha", smokeSpec())
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("alpha #2: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	resp.Body.Close()

	// beta is a different tenant: same instant, same queue, accepted.
	resp = submitAs(t, ts, "beta", smokeSpec())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("beta: status %d, want 202 while alpha is throttled", resp.StatusCode)
	}
	var beta map[string]string
	json.NewDecoder(resp.Body).Decode(&beta)
	resp.Body.Close()

	if got := metricValue(t, ts, `rrstudyd_tenant_rejected_total{tenant="alpha"}`); got != "1" {
		t.Errorf(`rejected_total{tenant="alpha"} = %q, want 1`, got)
	}
	if got := metricValue(t, ts, `rrstudyd_tenant_rejected_total{tenant="beta"}`); got != "0" {
		t.Errorf(`rejected_total{tenant="beta"} = %q, want 0`, got)
	}

	// Quota slots release at finalize: once alpha's job finishes, alpha
	// may submit again.
	once.Do(func() { close(release) })
	if st := waitTerminal(t, ts, first["id"]); st.State != StateDone {
		t.Fatalf("alpha #1 settled as %+v", st)
	}
	if st := waitTerminal(t, ts, beta["id"]); st.State != StateDone {
		t.Fatalf("beta settled as %+v", st)
	}
	resp = submitAs(t, ts, "alpha", smokeSpec())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("alpha #3 after slot release: status %d", resp.StatusCode)
	}
	json.NewDecoder(resp.Body).Decode(&first)
	resp.Body.Close()
	waitTerminal(t, ts, first["id"])
}

// TestTenantTokenBucket: the rate limiter under a pinned obs clock —
// burst tokens run out to a 429 whose Retry-After reflects the refill
// rate, advancing the (virtual) wall clock grants a new token, and a
// refused global push refunds the token it charged.
func TestTenantTokenBucket(t *testing.T) {
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	obs.SetNow(func() time.Time { return now })
	defer obs.SetNow(nil)

	s := newTestServer(t, Config{Workers: 1, QueueCap: 8, TenantRate: 1, TenantBurst: 2})
	release := make(chan struct{})
	s.startHook = func(*Job) { <-release }
	defer close(release)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Burst of 2 accepted; the third is out of tokens.
	for i := 0; i < 2; i++ {
		resp := submitAs(t, ts, "alpha", smokeSpec())
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("burst submit %d: status %d", i, resp.StatusCode)
		}
		resp.Body.Close()
	}
	resp := submitAs(t, ts, "alpha", smokeSpec())
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-burst submit: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After = %q, want 1 (one token at 1/s)", ra)
	}
	resp.Body.Close()

	// One virtual second refills one token.
	now = now.Add(time.Second)
	resp = submitAs(t, ts, "alpha", smokeSpec())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("post-refill submit: status %d, want 202", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestTenantRefundOnQueueFull: when the tenant bucket admits but the
// shared queue refuses, the charged token is refunded — a 503 storm
// must not also drain the tenant's budget.
func TestTenantRefundOnQueueFull(t *testing.T) {
	// Handler goroutines read the pinned clock while the test advances it.
	var now atomic.Pointer[time.Time]
	t0 := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	now.Store(&t0)
	obs.SetNow(func() time.Time { return *now.Load() })
	defer obs.SetNow(nil)

	s := newTestServer(t, Config{Workers: 1, QueueCap: 1, TenantRate: 1, TenantBurst: 2})
	started := make(chan struct{}, 2) // both accepted jobs start, the second after release closes
	release := make(chan struct{})
	s.startHook = func(*Job) { started <- struct{}{}; <-release }
	defer close(release)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Two submissions: one runs (parked in the hook), one fills the queue.
	// Both tokens spent. The second waits until the worker has taken the
	// first out of the one-slot queue, or it would find the queue full.
	for i := 0; i < 2; i++ {
		resp := submitAs(t, ts, "alpha", smokeSpec())
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", i, resp.StatusCode)
		}
		resp.Body.Close()
		if i == 0 {
			<-started
		}
	}
	// Refill one token; the queue is still full, so this 503s — and must
	// give the token back.
	t1 := t0.Add(time.Second)
	now.Store(&t1)
	resp := submitAs(t, ts, "alpha", smokeSpec())
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("queue-full submit: status %d, want 503", resp.StatusCode)
	}
	resp.Body.Close()

	s.mu.Lock()
	tokens := s.tenants["alpha"].tokens
	s.mu.Unlock()
	if tokens != 1 {
		t.Errorf("tokens after refund = %v, want 1", tokens)
	}
}

// TestScheduleEpochsExemptFromBucket: a schedule pays one token at
// creation and its epochs are metered=false — a 3-epoch schedule under
// a burst-1 bucket completes even though three metered submissions
// never could.
func TestScheduleEpochsExemptFromBucket(t *testing.T) {
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	obs.SetNow(func() time.Time { return now })
	defer obs.SetNow(nil)

	s := newTestServer(t, Config{Workers: 1, QueueCap: 8, TenantRate: 0.001, TenantBurst: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	id, code := createSchedule(t, ts, "alpha", ScheduleSpec{Job: smokeSpec(), Epochs: 3})
	if code != http.StatusAccepted {
		t.Fatalf("create: status %d", code)
	}
	if st := waitSchedule(t, ts, id); st.State != SchedDone {
		t.Fatalf("schedule under empty bucket settled as %+v", st)
	}

	// The creation token is spent: a second schedule is refused 429.
	if _, code := createSchedule(t, ts, "alpha", ScheduleSpec{Job: smokeSpec(), Epochs: 1}); code != http.StatusTooManyRequests {
		t.Errorf("second create: status %d, want 429", code)
	}
}
