package server

import (
	"bytes"
	"net/http/httptest"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"recordroute/internal/netsim"
	"recordroute/internal/study"
)

// registrySpec is the small world every registered experiment is served
// on in TestServeEveryExperiment.
func registrySpec(name string) JobSpec {
	return JobSpec{Experiment: name, Scale: 0.15, Rate: 200, ShuffleSeed: 7, Shards: smokeShards}
}

// journaledRender is the in-process twin of a job: the same world and
// options, journaled as the daemon journals, running the same entry at
// its defaults. It returns the render and the study that ran it.
func journaledRender(t *testing.T, spec JobSpec, e study.Experiment) ([]byte, *study.Study) {
	t.Helper()
	cfg, opts, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	st, err := study.New(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.AttachJournal(filepath.Join(t.TempDir(), "ref.jsonl"), false); err != nil {
		t.Fatal(err)
	}
	defer st.CloseJournal()
	res, err := e.Run(st, study.Params{})
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	res.Render(&b)
	return b.Bytes(), st
}

// TestServeEveryExperiment: the daemon serves the whole registry. Every
// registered experiment reaches done with a render equal to the
// journaled in-process run of the same entry on the same world, and a
// total it reports is exact: never exceeded while running, met when
// done. An unknown name is refused with the registered ones listed, and
// a schedule of anything but table1 with the reason.
func TestServeEveryExperiment(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2, QueueCap: 32})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	exps := study.Experiments()
	ids := make([]string, len(exps))
	for i, e := range exps {
		ids[i] = submit(t, ts, registrySpec(e.Name))
	}
	for i, e := range exps {
		t.Run(e.Name, func(t *testing.T) {
			job := s.Job(ids[i])
			deadline := time.Now().Add(2 * time.Minute)
			var st Status
			for st = job.status(); st.State != StateDone && st.State != StateFailed; st = job.status() {
				if st.Total > 0 && st.Done > st.Total {
					t.Fatalf("status reports %d of %d checkpoints done", st.Done, st.Total)
				}
				if time.Now().After(deadline) {
					t.Fatal("job did not finish")
				}
				time.Sleep(10 * time.Millisecond)
			}
			if st.State != StateDone {
				t.Fatalf("job %s: %+v", ids[i], st)
			}
			if st.Total > 0 && st.Done != st.Total {
				t.Errorf("finished with %d of %d checkpoints done: a known total must be exact", st.Done, st.Total)
			}
			code, render := get(t, ts, "/jobs/"+ids[i]+"/render")
			if code != 200 {
				t.Fatalf("render: status %d", code)
			}
			if want, _ := journaledRender(t, registrySpec(e.Name), e); !bytes.Equal(render, want) {
				t.Errorf("daemon render differs from the in-process journaled run:\n--- daemon ---\n%s\n--- in-process ---\n%s", render, want)
			}
		})
	}

	_, err := s.Submit(registrySpec("fig9"))
	for _, e := range exps {
		if err == nil || !strings.Contains(err.Error(), e.Name) {
			t.Errorf("unknown experiment refused with %v, want %q listed", err, e.Name)
		}
	}
	if _, err := s.CreateSchedule("", ScheduleSpec{Job: registrySpec("fig5"), Epochs: 2}); err == nil ||
		!strings.Contains(err.Error(), "table1 only") {
		t.Errorf("a fig5 schedule: err = %v, want refused as table1 only", err)
	}
}

// TestJobRetriesReachProbes: a job's retries reach its probes. A table1
// job with retries 2 under a lossy fault plan renders what the facade's
// path (Resolve, then study.New) renders for the same spec, its stream
// carries retransmitted probes, and the in-process twin's probers
// count retransmissions.
func TestJobRetriesReachProbes(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueCap: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := JobSpec{Experiment: "table1", Scale: 0.15, Rate: 200, ShuffleSeed: 7, Shards: 1, Retries: 2,
		Faults: &netsim.FaultConfig{LossProb: 0.2, LossFrac: 0.5}}
	id := submit(t, ts, spec)
	if st := waitDone(t, ts, id); st.State != StateDone {
		t.Fatalf("job %s: %+v", id, st)
	}
	_, render := get(t, ts, "/jobs/"+id+"/render")
	_, stream := get(t, ts, "/jobs/"+id+"/stream")

	e, err := study.Lookup(spec.Experiment)
	if err != nil {
		t.Fatal(err)
	}
	want, st := journaledRender(t, spec, e)
	if !bytes.Equal(render, want) {
		t.Errorf("daemon render differs from the in-process run of the same spec:\n--- daemon ---\n%s\n--- in-process ---\n%s", render, want)
	}
	var resent uint64
	for _, vp := range st.Camp.VPs {
		resent += vp.Prober.Retransmits()
	}
	if resent == 0 {
		t.Error("the in-process twin retransmitted nothing under 20% loss with retries 2")
	}
	if !regexp.MustCompile(`"attempts":[2-9]`).Match(stream) {
		t.Error("the job's stream holds no probe sent more than once")
	}
}
