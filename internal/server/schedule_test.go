package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"recordroute/internal/netsim"
	"recordroute/internal/results"
)

// churnSpec is smokeSpec under the long-horizon churn weather: a
// deterministic fault plan whose per-epoch withdrawals make the
// schedule's epoch-over-epoch diff non-trivial.
func churnSpec() JobSpec {
	spec := smokeSpec()
	spec.Faults = &netsim.FaultConfig{Seed: 99, ChurnFrac: 0.5, ChurnProb: 0.35}
	return spec
}

func createSchedule(t *testing.T, ts *httptest.Server, tenant string, spec ScheduleSpec) (string, int) {
	t.Helper()
	body, _ := json.Marshal(spec)
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/schedules", bytes.NewReader(body))
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
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return "", resp.StatusCode
	}
	var out map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out["id"], resp.StatusCode
}

// waitSchedule polls until the schedule leaves the active state.
func waitSchedule(t *testing.T, ts *httptest.Server, id string) ScheduleStatus {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		code, body := get(t, ts, "/schedules/"+id)
		if code != http.StatusOK {
			t.Fatalf("schedule poll: %d", code)
		}
		var st ScheduleStatus
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		if st.State != SchedActive {
			return st
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("schedule never finished")
	return ScheduleStatus{}
}

// TestScheduleEpochsAndDiff is the tentpole's happy path: a 3-epoch
// recurring campaign under churn weather completes, its epoch index
// records one reachable set per epoch, the /diff table shows real
// epoch-over-epoch churn, every epoch's plane comes from the cache
// (one build total), and the plane-affinity hit rate on the repeat
// epochs meets the >= 90% acceptance bar.
func TestScheduleEpochsAndDiff(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2, QueueCap: 8})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	id, code := createSchedule(t, ts, "", ScheduleSpec{Job: churnSpec(), Epochs: 3})
	if code != http.StatusAccepted {
		t.Fatalf("create schedule: status %d", code)
	}
	st := waitSchedule(t, ts, id)
	if st.State != SchedDone {
		t.Fatalf("schedule settled as %+v, want done", st)
	}
	if st.NextEpoch != 3 || st.Progress != 1 {
		t.Errorf("cursor %+v, want next_epoch 3 at progress 1", st)
	}

	sc := s.Schedule(id)
	recs := sc.Index.Epochs()
	if len(recs) != 3 {
		t.Fatalf("epoch index holds %d records, want 3", len(recs))
	}
	for i, r := range recs {
		if r.Epoch != i || len(r.Reachable) == 0 {
			t.Errorf("record %d: epoch %d with %d reachable, want epoch %d non-empty", i, r.Epoch, len(r.Reachable), i)
		}
	}
	// Churn must actually move reachability between epochs — a diff of
	// all-stable rows means the virtual-epoch clock never advanced.
	churned := false
	for _, d := range sc.Index.Diffs() {
		if len(d.Gained) > 0 || len(d.Lost) > 0 {
			churned = true
		}
	}
	if !churned {
		t.Error("no reachability churn across 3 epochs under a churn fault plan")
	}

	code, diff := get(t, ts, "/schedules/"+id+"/diff")
	if code != http.StatusOK {
		t.Fatalf("diff: status %d", code)
	}
	if lines := bytes.Count(diff, []byte("\n")); lines != 4 {
		t.Errorf("diff table has %d lines, want 4 (header + 3 epochs):\n%s", lines, diff)
	}

	// One plane for all epochs: same topology digest each time.
	if _, misses, _ := s.cache.Stats(); misses != 1 {
		t.Errorf("plane-cache misses = %d over 3 epochs, want 1", misses)
	}
	// Affinity acceptance: with every epoch hashing to the same worker
	// and no competing load, at least 90% of executions must land on the
	// preferred worker.
	hits, total := s.affinityHits.Load(), s.affinityHits.Load()+s.affinityMisses.Load()
	if total == 0 || float64(hits)/float64(total) < 0.9 {
		t.Errorf("affinity hit rate %d/%d, want >= 90%%", hits, total)
	}

	// The schedule listing includes it, terminal.
	code, body := get(t, ts, "/schedules")
	if code != http.StatusOK {
		t.Fatalf("list: status %d", code)
	}
	var list []ScheduleStatus
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != id || list[0].State != SchedDone {
		t.Errorf("schedule list %+v, want the one done schedule", list)
	}
}

// TestScheduleShardInvariantDiff: the same 3-epoch schedule run at
// shard widths 1, 2, and 4 renders a byte-identical diff table — the
// determinism contract (DESIGN.md §6) extended to the virtual-epoch
// cadence.
func TestScheduleShardInvariantDiff(t *testing.T) {
	var diffs [][]byte
	for _, shards := range []int{1, 2, 4} {
		s := newTestServer(t, Config{Workers: 2, QueueCap: 8})
		ts := httptest.NewServer(s.Handler())
		spec := churnSpec()
		spec.Shards = shards
		id, code := createSchedule(t, ts, "", ScheduleSpec{Job: spec, Epochs: 3})
		if code != http.StatusAccepted {
			t.Fatalf("shards=%d: create status %d", shards, code)
		}
		if st := waitSchedule(t, ts, id); st.State != SchedDone {
			t.Fatalf("shards=%d: schedule settled as %+v", shards, st)
		}
		_, diff := get(t, ts, "/schedules/"+id+"/diff")
		diffs = append(diffs, diff)
		ts.Close()
		s.Drain()
	}
	for i := 1; i < len(diffs); i++ {
		if !bytes.Equal(diffs[0], diffs[i]) {
			t.Errorf("diff table differs between shard widths:\n--- shards=1 ---\n%s--- other ---\n%s", diffs[0], diffs[i])
		}
	}
}

// TestScheduleKillRestartResume is the schedule lifecycle chaos test:
// a daemon killed mid-epoch — simulated as the exact on-disk state a
// SIGKILL leaves (schedule checkpoint at the epoch-1 cursor, epoch-1
// journal torn mid-line, no later artifacts) — must, on restart over
// the same data dir, resume the interrupted epoch from its journal,
// run the remaining epochs, and render a diff table byte-identical to
// an uninterrupted run's.
func TestScheduleKillRestartResume(t *testing.T) {
	// Uninterrupted baseline in its own data dir.
	dirA := t.TempDir()
	s1 := newTestServer(t, Config{Workers: 1, QueueCap: 8, DataDir: dirA})
	ts1 := httptest.NewServer(s1.Handler())
	id, code := createSchedule(t, ts1, "", ScheduleSpec{Job: churnSpec(), Epochs: 3})
	if code != http.StatusAccepted {
		t.Fatalf("baseline create: status %d", code)
	}
	if st := waitSchedule(t, ts1, id); st.State != SchedDone {
		t.Fatalf("baseline schedule settled as %+v", st)
	}
	_, baseline := get(t, ts1, "/schedules/"+id+"/diff")
	ts1.Close()
	s1.Drain()

	// The victim run: complete it in dirB, then rewind the on-disk state
	// to what a kill during epoch 1 leaves behind.
	dirB := t.TempDir()
	s2 := newTestServer(t, Config{Workers: 1, QueueCap: 8, DataDir: dirB})
	ts2 := httptest.NewServer(s2.Handler())
	vid, _ := createSchedule(t, ts2, "", ScheduleSpec{Job: churnSpec(), Epochs: 3})
	if st := waitSchedule(t, ts2, vid); st.State != SchedDone {
		t.Fatalf("victim schedule settled as %+v", st)
	}
	vsc := s2.Schedule(vid)
	ts2.Close()
	s2.Drain()

	// Rewind the checkpoint: cursor back to epoch 1, index holding only
	// epoch 0 — the state persisted right after epoch 0 completed.
	idx := &results.EpochIndex{}
	idx.Add(0, vsc.Index.Epochs()[0].Reachable)
	rec := schedRecord{ID: vid, Tenant: "default", State: SchedActive, NextEpoch: 1,
		Spec: ScheduleSpec{Job: churnSpec(), Epochs: 3}, Index: idx}
	data, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dirB, vid+".json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	// Tear epoch 1's journal mid-line after two batch records and remove
	// epoch 2's entirely.
	e1 := filepath.Join(dirB, fmt.Sprintf("%s-e1.jsonl", vid))
	jdata, err := os.ReadFile(e1)
	if err != nil {
		t.Fatal(err)
	}
	var wound bytes.Buffer
	batches := 0
	for _, l := range bytes.SplitAfter(jdata, []byte("\n")) {
		if bytes.Contains(l, []byte(`"t":"vp"`)) {
			if batches++; batches > 2 {
				wound.Write(l[:len(l)/3])
				break
			}
		}
		wound.Write(l)
	}
	if err := os.WriteFile(e1, wound.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dirB, fmt.Sprintf("%s-e2.jsonl", vid))); err != nil {
		t.Fatal(err)
	}

	// Third life: a fresh server over dirB must pick the schedule up at
	// epoch 1, resume its torn journal, and finish epoch 2.
	s3 := newTestServer(t, Config{Workers: 1, QueueCap: 8, DataDir: dirB})
	ts3 := httptest.NewServer(s3.Handler())
	defer ts3.Close()
	st := waitSchedule(t, ts3, vid)
	if st.State != SchedDone {
		t.Fatalf("resumed schedule settled as %+v", st)
	}
	_, resumed := get(t, ts3, "/schedules/"+vid+"/diff")
	if !bytes.Equal(resumed, baseline) {
		t.Errorf("post-restart diff differs from uninterrupted run:\n--- resumed ---\n%s--- baseline ---\n%s", resumed, baseline)
	}

	// A second restart over the now-done state must not refire anything.
	ts3.Close()
	s3.Drain()
	s4 := newTestServer(t, Config{Workers: 1, QueueCap: 8, DataDir: dirB})
	ts4 := httptest.NewServer(s4.Handler())
	defer ts4.Close()
	if st := waitSchedule(t, ts4, vid); st.State != SchedDone || st.NextEpoch != 3 {
		t.Errorf("restarted done schedule reads %+v, want done at epoch 3", st)
	}
}

// TestScheduleCancel: DELETE /schedules/{id} stops the cadence — the
// in-flight epoch job is canceled, no further epochs fire, and the
// terminal state survives both a second DELETE (409) and a restart.
func TestScheduleCancel(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, Config{Workers: 1, QueueCap: 8, DataDir: dir})
	release := make(chan struct{})
	s.startHook = func(*Job) { <-release }
	defer close(release)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	id, _ := createSchedule(t, ts, "", ScheduleSpec{Job: churnSpec(), Epochs: 5})

	// Wait until epoch 0's job is parked in the worker.
	deadline := time.Now().Add(10 * time.Second)
	for {
		var st ScheduleStatus
		_, body := get(t, ts, "/schedules/"+id)
		json.Unmarshal(body, &st)
		if st.CurrentJob != "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("epoch 0 never started")
		}
		time.Sleep(time.Millisecond)
	}

	if code, _ := del(t, ts, "/schedules/"+id); code != http.StatusAccepted {
		t.Fatalf("cancel schedule: status %d", code)
	}
	st := waitSchedule(t, ts, id)
	if st.State != SchedCanceled {
		t.Fatalf("canceled schedule settled as %+v", st)
	}
	if st.NextEpoch != 0 {
		t.Errorf("canceled schedule advanced to epoch %d, want 0", st.NextEpoch)
	}
	if code, _ := del(t, ts, "/schedules/"+id); code != http.StatusConflict {
		t.Errorf("second cancel: status %d, want 409", code)
	}
	if code, _ := del(t, ts, "/schedules/nope"); code != http.StatusNotFound {
		t.Errorf("cancel unknown schedule: status %d, want 404", code)
	}
}

// TestScheduleValidation: malformed schedule specs are refused at
// creation, before anything persists or fires.
func TestScheduleValidation(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueCap: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []ScheduleSpec{
		{Job: smokeSpec(), Epochs: 0},                                                           // no epochs
		{Job: JobSpec{Experiment: "nope"}, Epochs: 3},                                           // unknown experiment
		{Job: func() JobSpec { j := smokeSpec(); j.Journal = "/tmp/x"; return j }(), Epochs: 3}, // journal is schedule-owned
		{Job: func() JobSpec { j := smokeSpec(); j.Scale = 999; return j }(), Epochs: 3},        // bad config
	}
	for i, spec := range cases {
		if _, code := createSchedule(t, ts, "", spec); code != http.StatusBadRequest {
			t.Errorf("case %d: status %d, want 400", i, code)
		}
	}
	if len(s.Schedules()) != 0 {
		t.Errorf("refused schedules were registered: %d", len(s.Schedules()))
	}
}
