package server

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"recordroute/internal/results"
	"recordroute/internal/study"
)

// Recurring campaigns. A Schedule runs one JobSpec for N virtual
// epochs, each epoch a fully deterministic derivation of the base
// spec: epoch e probes with ShuffleSeed = study.EpochSeed(base, e),
// FaultEpoch = e (advancing the long-horizon churn clock), and its own
// journal path sched-<id>-e<e>.jsonl under DataDir. The topology
// config — and therefore the plane digest — is identical across
// epochs, so every epoch of a schedule hits the frozen-plane cache and
// lands on the same affinity worker. Completed epochs feed the
// schedule's results.EpochIndex, whose consecutive diffs are the
// GET /schedules/{id}/diff churn view.
//
// Schedules are crash-safe the same way jobs are: the schedule record
// (spec, cursor, index) checkpoints to sched-<id>.json after every
// state change, epoch journals carry batch progress, and a restarted
// server resumes the interrupted epoch with Resume semantics — the
// resumed series is byte-identical to an uninterrupted one.

// Schedule states.
const (
	SchedActive   = "active"
	SchedDone     = "done"
	SchedFailed   = "failed"
	SchedCanceled = "canceled"
)

// ScheduleSpec is the POST /schedules body: the base job and how many
// epochs to run it for.
type ScheduleSpec struct {
	// Job is the base campaign spec; per-epoch seed, fault epoch, and
	// journal are derived from it. Journal and Resume must be unset —
	// the schedule owns journal placement.
	Job JobSpec `json:"job"`
	// Epochs is the number of virtual epochs to run (>= 1).
	Epochs int `json:"epochs"`
}

// Schedule is one recurring campaign. Its fields are written by the
// lifecycle under its mutex; Index has its own lock and is safe to
// render concurrently.
type Schedule struct {
	ID     string
	Tenant string
	Spec   ScheduleSpec
	digest string // every epoch's plane digest: the spec's topology never varies

	state      string
	nextEpoch  int    // first epoch not yet completed
	currentJob string // in-flight epoch job, "" between epochs
	errMsg     string

	Index *results.EpochIndex
}

// schedRecord is the persisted form of a Schedule.
type schedRecord struct {
	ID        string              `json:"id"`
	Tenant    string              `json:"tenant"`
	Spec      ScheduleSpec        `json:"spec"`
	State     string              `json:"state"`
	NextEpoch int                 `json:"next_epoch"`
	Error     string              `json:"error,omitempty"`
	Index     *results.EpochIndex `json:"index"`
}

// ScheduleStatus is the schedule-status JSON.
type ScheduleStatus struct {
	ID         string  `json:"id"`
	Tenant     string  `json:"tenant"`
	State      string  `json:"state"`
	Epochs     int     `json:"epochs"`
	NextEpoch  int     `json:"next_epoch"`
	CurrentJob string  `json:"current_job,omitempty"`
	Error      string  `json:"error,omitempty"`
	Progress   float64 `json:"progress"`
}

func (s *Server) scheduleStatus(sc *Schedule) ScheduleStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := ScheduleStatus{ID: sc.ID, Tenant: sc.Tenant, State: sc.state,
		Epochs: sc.Spec.Epochs, NextEpoch: sc.nextEpoch,
		CurrentJob: sc.currentJob, Error: sc.errMsg}
	if sc.Spec.Epochs > 0 {
		st.Progress = float64(sc.nextEpoch) / float64(sc.Spec.Epochs)
	}
	return st
}

// CreateSchedule registers a recurring campaign for a tenant and fires
// its first epoch. The tenant pays one admission token at creation;
// the per-epoch jobs only hold quota slots (metered=false), so a
// schedule cannot starve its own epochs out of the token bucket it
// already paid.
func (s *Server) CreateSchedule(tenant string, spec ScheduleSpec) (*Schedule, error) {
	if tenant == "" {
		tenant = "default"
	}
	if spec.Epochs < 1 {
		return nil, fmt.Errorf("schedule needs epochs >= 1 (got %d)", spec.Epochs)
	}
	if spec.Job.Journal != "" || spec.Job.Resume {
		return nil, fmt.Errorf("schedule job must not set journal/resume: epoch journals are derived from the schedule ID")
	}
	if spec.Job.Experiment != "table1" {
		return nil, fmt.Errorf("schedule experiment %q: schedules run table1 only, because an epoch diff is Table 1's RR-reachable set", spec.Job.Experiment)
	}
	cfg, _, err := spec.Job.Resolve()
	if err != nil {
		return nil, err
	}
	sc, fx, err := s.lifecycle.createSchedule(tenant, spec, cfg.Digest())
	s.apply(fx)
	return sc, err
}

// Schedule returns a registered schedule by ID.
func (s *Server) Schedule(id string) *Schedule {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.schedules[id]
}

// Schedules returns all schedules in creation order.
func (s *Server) Schedules() []*Schedule {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Schedule, 0, len(s.schedIDs))
	for _, id := range s.schedIDs {
		out = append(out, s.schedules[id])
	}
	return out
}

// CancelSchedule stops a schedule: no further epochs fire, and the
// in-flight epoch job (if any) is canceled. Terminal schedules are
// left as they are.
func (s *Server) CancelSchedule(id string) (*Schedule, bool) {
	sc, terminal, fx := s.lifecycle.cancelSchedule(id)
	s.apply(fx)
	return sc, terminal
}

// epochSpec derives epoch e's job spec from the schedule's base: a
// fresh shuffle seed (splitmix over the base seed and e), the churn
// clock pinned to e, and the epoch's own journal under DataDir.
// Everything that keys the plane cache is untouched, by construction.
func (sc *Schedule) epochSpec(dataDir string, e int) JobSpec {
	spec := sc.Spec.Job
	spec.ShuffleSeed = study.EpochSeed(sc.Spec.Job.ShuffleSeed, e)
	spec.FaultEpoch = e
	spec.Journal = filepath.Join(dataDir, fmt.Sprintf("%s-e%d.jsonl", sc.ID, e))
	spec.Resume = true // the epoch's journal survives kills; completed batches archive
	return spec
}

// persist checkpoints the schedule record to DataDir/<id>.json,
// atomically (write-temp, rename): a kill mid-write leaves either the
// previous checkpoint or the new one, never a torn file. Writes are
// serialized and each snapshots the record as it writes, so the last
// write on disk is the newest state whichever transition asked first.
func (s *Server) persist(sc *Schedule) {
	s.persistMu.Lock()
	defer s.persistMu.Unlock()
	data, err := json.Marshal(s.lifecycle.record(sc))
	if err != nil {
		return
	}
	path := filepath.Join(s.cfg.DataDir, sc.ID+".json")
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return
	}
	os.Rename(tmp, path)
}

// loadSchedules restores persisted schedules at startup, in creation
// order, and fires the cursor epoch of every active one — the resume
// half of the schedule lifecycle. A mid-epoch kill left that epoch's
// journal with its completed batches; the refired epoch job resumes
// from it.
func (s *Server) loadSchedules() error {
	paths, err := filepath.Glob(filepath.Join(s.cfg.DataDir, "sched-*.json"))
	if err != nil {
		return err
	}
	type restored struct {
		rec    schedRecord
		n      int
		digest string
	}
	var recs []restored
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("schedule restore %s: %w", path, err)
		}
		var rec schedRecord
		if err := json.Unmarshal(data, &rec); err != nil {
			return fmt.Errorf("schedule restore %s: %w", path, err)
		}
		n, ok := schedNum(rec.ID)
		if !ok {
			continue
		}
		cfg, _, err := rec.Spec.Job.Resolve()
		if err != nil {
			return fmt.Errorf("schedule restore %s: %w", path, err)
		}
		recs = append(recs, restored{rec, n, cfg.Digest()})
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].n < recs[j].n })
	for _, r := range recs {
		s.apply(s.lifecycle.restore(r.rec, r.digest))
	}
	return nil
}

func schedNum(id string) (int, bool) {
	rest, ok := strings.CutPrefix(id, "sched-")
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(rest)
	if err != nil || n < 1 {
		return 0, false
	}
	return n, true
}
