package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"recordroute/internal/measure"
	"recordroute/internal/netsim"
	"recordroute/internal/packet"
	"recordroute/internal/probe"
	"recordroute/internal/results"
	"recordroute/internal/study"
	"recordroute/internal/topology"
)

// The layer ladder: one rung per module, each rung the unit cost of that
// module measured from outside by timing calls into its exported
// functions, on one reference spec (world 0 at ladderScale, rate 200,
// the first probing order of the seed). Every traced run climbs the
// whole ladder, whatever its workload, so a rung reads the same on
// every workload and a rung above can be reconciled against the rungs
// below it (README.md, "Reconciling upward").

func runLadder(e *env, rep *report) {
	note := func(err error) {
		if err != nil {
			rep.problemf("ladder: %v", err)
		}
	}
	note(ladderPacket(e, rep))
	note(ladderNetsim(e, rep))
	vp, batch, err := ladderProbe(e, rep)
	note(err)
	if err == nil {
		note(ladderResults(rep, vp, batch))
	}
	phases, err := ladderMeasure(e, rep)
	note(err)
	if err == nil {
		note(ladderExperiments(e, rep, phases))
	}
	note(ladderDoubletree(e, rep))
	note(ladderTopology(e, rep))
	note(ladderServer(e, rep))
}

// micro times fn over iters iterations, three rounds, and returns the
// median round's ns per iteration and the mallocs per iteration.
func micro(iters int, fn func()) (ns, allocs float64) {
	var rounds []float64
	var m0, m1 runtime.MemStats
	for r := 0; r < 3; r++ {
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		rounds = append(rounds, float64(time.Since(t0).Nanoseconds())/float64(iters))
		runtime.ReadMemStats(&m1)
	}
	return quantile(rounds, 0.5), float64(m1.Mallocs-m0.Mallocs) / float64(iters)
}

// timed runs fn once and returns its wall time.
func timed(fn func()) time.Duration {
	t0 := time.Now()
	fn()
	return time.Since(t0)
}

func addr(a, b, c, d byte) netip.Addr { return netip.AddrFrom4([4]byte{a, b, c, d}) }

// pingWire serialises an echo request: with rr, under a nine-slot Record
// Route option with recorded slots filled — the largest header the
// simulator carries — else option-less, the smallest.
func pingWire(src, dst netip.Addr, rr bool, recorded int) (hdr packet.IPv4, transport, wire []byte, err error) {
	hdr = packet.IPv4{TTL: 64, ID: 7, Protocol: packet.ProtocolICMP, Src: src, Dst: dst}
	if rr {
		opt := packet.NewRecordRoute(packet.MaxRRSlots)
		for i := 0; i < recorded; i++ {
			opt.Record(addr(10, 9, 0, byte(i+1)))
		}
		if err := hdr.SetRecordRoute(opt); err != nil {
			return hdr, nil, nil, err
		}
	}
	transport = packet.NewEchoRequest(7, 9, []byte("payload")).Marshal()
	wire, err = hdr.Marshal(transport)
	return hdr, transport, wire, err
}

// ladderPacket: decode and serialise cost per packet, no simulator.
func ladderPacket(e *env, rep *report) error {
	src, dst := addr(10, 0, 0, 2), addr(10, 2, 0, 2)
	hdr, transport, wireRR, err := pingWire(src, dst, true, 4)
	if err != nil {
		return err
	}
	_, _, wirePlain, err := pingWire(src, dst, false, 0)
	if err != nil {
		return err
	}
	// A Time Exceeded quoting the RR header: what a TTL-limited ping-RR
	// brings back.
	quote := packet.NewError(packet.ICMPTimeExceeded, 0, wireRR[:hdr.HeaderLen()], wireRR[hdr.HeaderLen():])
	quoteWire := quote.Marshal()

	var (
		p      packet.Parsed
		icmp   packet.ICMP
		quoted packet.IPv4
		buf    = make([]byte, 0, 128)
		failed error
	)
	note := func(err error) {
		if err != nil {
			failed = err
		}
	}
	decRR, a1 := micro(e.size.microIters, func() { note(p.Decode(wireRR)) })
	decPlain, a2 := micro(e.size.microIters, func() { note(p.Decode(wirePlain)) })
	appendRR, a3 := micro(e.size.microIters, func() {
		out, err := hdr.AppendTo(buf[:0], transport)
		note(err)
		buf = out
	})
	quotedRR, a4 := micro(e.size.microIters, func() {
		note(icmp.Decode(quoteWire))
		_, err := icmp.QuotedDatagram(&quoted)
		note(err)
	})
	if failed != nil {
		return fmt.Errorf("packet: %w", failed)
	}
	rep.Metrics["packet.decode_rr_ns"] = value{V: decRR, Unit: "ns", N: e.size.microIters}
	rep.Metrics["packet.decode_plain_ns"] = value{V: decPlain, Unit: "ns", N: e.size.microIters}
	rep.Metrics["packet.append_rr_ns"] = value{V: appendRR, Unit: "ns", N: e.size.microIters}
	rep.Metrics["packet.quoted_rr_ns"] = value{V: quotedRR, Unit: "ns", N: e.size.microIters}
	rep.Metrics["packet.allocs_per_op"] = value{V: a1 + a2 + a3 + a4, Unit: "count", N: e.size.microIters}
	return nil
}

// chain is VP — R0 — … — R7 — dest with /32 routes both ways: the
// smallest network on which a packet pays every per-hop cost.
type chain struct {
	net     *netsim.Network
	vp      *netsim.Host
	replies int
}

func newChain() *chain {
	const routers = 8
	c := &chain{net: netsim.New()}
	vpAddr, destAddr := addr(10, 0, 0, 2), addr(10, 2, 0, 2)
	c.vp = c.net.AddHost("vp", vpAddr, netsim.DefaultHostBehavior())
	dest := c.net.AddHost("dest", destAddr, netsim.DefaultHostBehavior())
	rs := make([]*netsim.Router, routers)
	for i := range rs {
		rs[i] = c.net.AddRouter(fmt.Sprintf("r%d", i), netsim.RouterBehavior{})
	}
	const delay = time.Millisecond
	_, in := c.net.Connect(c.vp, rs[0], vpAddr, addr(10, 0, 0, 1), delay)
	back := []*netsim.Iface{in}
	var fwd []*netsim.Iface
	for i := 0; i+1 < routers; i++ {
		near, far := c.net.Connect(rs[i], rs[i+1], addr(10, 1, byte(i+1), 1), addr(10, 1, byte(i+1), 2), delay)
		fwd = append(fwd, near)
		back = append(back, far)
	}
	last, _ := c.net.Connect(rs[routers-1], dest, addr(10, 2, 0, 1), destAddr, delay)
	fwd = append(fwd, last)
	for i, r := range rs {
		r.AddRoute(netip.PrefixFrom(destAddr, 32), fwd[i])
		r.AddRoute(netip.PrefixFrom(vpAddr, 32), back[i])
	}
	c.vp.SetSniffer(func(time.Duration, []byte) { c.replies++ })
	return c
}

// wave0 is the untimed first wave of the chain measurement.
const wave0 = 64

// pump injects n copies of wire in waves and runs the engine dry after
// each; it returns wall time and mallocs per link transmission.
func (c *chain) pump(wire []byte, n int) (nsPerHop, allocsPerHop float64, err error) {
	// The network recycles a delivered buffer, so every packet is a
	// buffer of its own, made before the clock starts.
	pkts := make([][]byte, n)
	for i := range pkts {
		pkts[i] = append(make([]byte, 0, 128), wire...)
	}
	const wave = 256
	tx0, replies0 := c.net.Counter("link.tx"), c.replies
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	wall := timed(func() {
		for len(pkts) > 0 {
			k := min(wave, len(pkts))
			for _, p := range pkts[:k] {
				c.vp.Inject(p)
			}
			pkts = pkts[k:]
			c.net.Engine().Run()
		}
	})
	runtime.ReadMemStats(&m1)
	if got := c.replies - replies0; got != n {
		return 0, 0, fmt.Errorf("netsim chain: %d echo replies for %d requests", got, n)
	}
	hops := float64(c.net.Counter("link.tx") - tx0)
	return float64(wall.Nanoseconds()) / hops, float64(m1.Mallocs-m0.Mallocs) / hops, nil
}

// ladderNetsim: forwarding cost per hop on the eight-router chain, with
// and without the Record Route option.
func ladderNetsim(e *env, rep *report) error {
	c := newChain()
	_, _, wireRR, err := pingWire(c.vp.Addr(), addr(10, 2, 0, 2), true, 0)
	if err != nil {
		return err
	}
	_, _, wirePlain, err := pingWire(c.vp.Addr(), addr(10, 2, 0, 2), false, 0)
	if err != nil {
		return err
	}
	n := max(e.size.microIters/20, wave0)
	if _, _, err := c.pump(wireRR, wave0); err != nil { // fills route caches and the buffer pool
		return err
	}
	var rr, plain, allocs []float64
	for round := 0; round < 3; round++ {
		ns, a, err := c.pump(wireRR, n)
		if err != nil {
			return err
		}
		rr, allocs = append(rr, ns), append(allocs, a)
		if ns, _, err = c.pump(wirePlain, n); err != nil {
			return err
		}
		plain = append(plain, ns)
	}
	rep.Metrics["netsim.hop_ns_rr"] = value{V: quantile(rr, 0.5), Unit: "ns", N: n}
	rep.Metrics["netsim.hop_ns_plain"] = value{V: quantile(plain, 0.5), Unit: "ns", N: n}
	rep.Metrics["netsim.allocs_per_hop_rr"] = value{V: quantile(allocs, 0.5), Unit: "count", N: n}
	return nil
}

// ladderStudy builds the reference study: world 0 at the ladder's scale.
func ladderStudy(e *env, scale float64, shards int) (*study.Study, error) {
	cfg := topology.DefaultConfig(topology.Epoch2016).Scale(scale)
	cfg.Seed = worlds[0]
	return study.New(cfg, study.Options{Rate: 200, ShuffleSeed: study.EpochSeed(e.seed, 1), Shards: shards})
}

// probeOpts is what study.Options{Rate: 200} hands the fleet.
var probeOpts = probe.Options{Rate: 200, Timeout: 2 * time.Second}

func mallocs() (n, bytes uint64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs, m.TotalAlloc
}

// ladderProbe: one VP's ping-RR batch to the whole hitlist, then chained
// TTL-limited one-shots, the traceroute engine's way of probing. It
// returns the batch's results for the results rung.
func ladderProbe(e *env, rep *report) (vp string, batch []probe.Result, err error) {
	s, err := ladderStudy(e, e.size.ladderScale, 1)
	if err != nil {
		return "", nil, err
	}
	dests := s.Data.Addrs()
	prober := s.Origin.Prober
	specs := make([]probe.Spec, len(dests))
	for i, d := range dests {
		specs[i] = probe.Spec{Dst: d, Kind: probe.PingRR}
	}
	a0, _ := mallocs()
	wall := timed(func() {
		prober.StartBatch(specs, probeOpts, func(rs []probe.Result) { batch = rs })
		s.Camp.Eng.Run()
	})
	a1, _ := mallocs()
	if len(batch) != len(specs) {
		return "", nil, fmt.Errorf("probe: batch of %d resolved %d", len(specs), len(batch))
	}
	sent, matched, timedOut, _ := prober.Stats()
	rep.Metrics["probe.batch_ns_per_probe"] = value{V: float64(wall.Nanoseconds()) / float64(len(specs)), Unit: "ns", N: len(specs)}
	rep.Metrics["probe.allocs_per_probe"] = value{V: float64(a1-a0) / float64(len(specs)), Unit: "count", N: len(specs)}
	rep.Metrics["probe.matched_frac"] = value{V: float64(matched) / float64(sent), Unit: "frac", N: int(sent)}
	rep.Metrics["probe.timeout_frac"] = value{V: float64(timedOut) / float64(sent), Unit: "frac", N: int(sent)}

	const maxTTL = 8
	targets := dests[:min(len(dests), 200)]
	ones := 0
	var launch func(d int, ttl uint8)
	launch = func(d int, ttl uint8) {
		prober.StartOne(probe.Spec{Dst: targets[d], Kind: probe.TTLPing, TTL: ttl}, 0, func(probe.Result) {
			ones++
			switch {
			case ttl < maxTTL:
				launch(d, ttl+1)
			case d+1 < len(targets):
				launch(d+1, 1)
			}
		})
	}
	wall = timed(func() {
		launch(0, 1)
		s.Camp.Eng.Run()
	})
	if ones != maxTTL*len(targets) {
		return "", nil, fmt.Errorf("probe: %d of %d chained probes resolved", ones, maxTTL*len(targets))
	}
	rep.Metrics["probe.one_ns_per_probe"] = value{V: float64(wall.Nanoseconds()) / float64(ones), Unit: "ns", N: ones}
	return s.Origin.Name, batch, nil
}

// ladderResults: one VP's batch through the JSONL codec the daemon
// streams and journals with.
func ladderResults(rep *report, vp string, batch []probe.Result) error {
	var enc, dec []float64
	var jsonl bytes.Buffer
	for round := 0; round < 5; round++ {
		jsonl.Reset()
		var err error
		enc = append(enc, float64(timed(func() { err = results.WriteJSONL(&jsonl, vp, batch) }).Nanoseconds()))
		if err != nil {
			return err
		}
		var back map[string][]probe.Result
		dec = append(dec, float64(timed(func() { back, err = results.ReadJSONL(bytes.NewReader(jsonl.Bytes())) }).Nanoseconds()))
		if err != nil {
			return err
		}
		if len(back[vp]) != len(batch) {
			return fmt.Errorf("results: %d results read back of %d written", len(back[vp]), len(batch))
		}
	}
	n := float64(len(batch))
	rep.Metrics["results.encode_ns_per_result"] = value{V: quantile(enc, 0.5) / n, Unit: "ns", N: len(batch)}
	rep.Metrics["results.decode_ns_per_result"] = value{V: quantile(dec, 0.5) / n, Unit: "ns", N: len(batch)}
	rep.Metrics["results.bytes_per_result"] = value{V: float64(jsonl.Len()) / n, Unit: "B", N: len(batch)}
	return nil
}

// ladderRounds is how often a campaign-sized rung is repeated, each time
// on a fresh study; the fastest round counts, for the reason the gated
// timings are fast deciles (fastDecile).
const ladderRounds = 3

// tablePhases times the two fleet primitives Table 1 is made of, as
// RunResponsiveness calls them, on fresh studies from mk, and returns
// each phase's fastest round and the last round's study.
func tablePhases(mk func() (*study.Study, error)) (origin, pingrr time.Duration, s *study.Study, err error) {
	for round := 0; round < ladderRounds; round++ {
		if s, err = mk(); err != nil {
			return 0, 0, nil, err
		}
		fleet := s.Fleet()
		if pc, ok := fleet.(*measure.ParallelCampaign); ok {
			pc.VPNames() // replica spin-up is measure.spinup_ms, not phase time
		}
		dests := s.Data.Addrs()
		o := timed(func() { fleet.PingBatchVP(s.Origin.Name, dests, 3, probeOpts) })
		p := timed(func() { fleet.PingRRAll(dests, probeOpts, s.Shuffler()) })
		if msg := shardErr(s); msg != "" {
			return 0, 0, nil, errors.New(msg)
		}
		if round == 0 || o < origin {
			origin = o
		}
		if round == 0 || p < pingrr {
			pingrr = p
		}
	}
	return origin, pingrr, s, nil
}

// ladderMeasure: Table 1's phases on the single engine, on N shards and
// on a journaled single shard. It returns the single engine's phase
// time for the study rung.
func ladderMeasure(e *env, rep *report) (phases time.Duration, err error) {
	origin1, pingrr1, _, err := tablePhases(func() (*study.Study, error) {
		return ladderStudy(e, e.size.ladderScale, 1)
	})
	if err != nil {
		return 0, err
	}
	rep.Metrics["measure.origin_phase_s"] = value{V: origin1.Seconds(), Unit: "s", N: ladderRounds}
	rep.Metrics["measure.pingrr_phase_s"] = value{V: pingrr1.Seconds(), Unit: "s", N: ladderRounds}

	originN, pingrrN, s, err := tablePhases(func() (*study.Study, error) {
		return ladderStudy(e, e.size.ladderScale, e.shards)
	})
	if err != nil {
		return 0, err
	}
	rep.Metrics["measure.shard_speedup"] = value{V: (origin1 + pingrr1).Seconds() / (originN + pingrrN).Seconds(), Unit: "x", N: e.shards}
	spin := timed(func() {
		var pc *measure.ParallelCampaign
		if pc, err = measure.NewParallelCampaignFrom(s.Topo, e.shards); err == nil {
			pc.VPNames()
		}
	})
	if err != nil {
		return 0, err
	}
	rep.Metrics["measure.spinup_ms"] = one(ms(spin), "ms")

	dir, err := e.tempDir()
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	// One journal file a round: each study truncates it, once the study
	// before has closed it.
	journal := filepath.Join(dir, "ladder.jsonl")
	var journaled *study.Study
	_, pingrrJ, s, err := tablePhases(func() (*study.Study, error) {
		if journaled != nil {
			if err := journaled.CloseJournal(); err != nil {
				return nil, err
			}
		}
		s, err := ladderStudy(e, e.size.ladderScale, 1)
		if err != nil {
			return nil, err
		}
		journaled = s
		_, err = s.AttachJournal(journal, false)
		return s, err
	})
	if err != nil {
		return 0, err
	}
	if err := s.CloseJournal(); err != nil {
		return 0, err
	}
	st, err := os.Stat(journal)
	if err != nil {
		return 0, err
	}
	rep.Metrics["measure.journal_overhead_frac"] = value{V: pingrrJ.Seconds()/pingrr1.Seconds() - 1, Unit: "frac", N: ladderRounds}
	rep.Metrics["measure.journal_bytes_per_probe"] = value{V: float64(st.Size()) / float64(simProbes(s)), Unit: "B", N: int(simProbes(s))}
	return origin1 + pingrr1, nil
}

// ladderExperiments: Table 1 and Figure 1 whole, what of Table 1 the
// measure phases below do not explain, and the engine's event rate and
// simulated drop statistics over the same run.
func ladderExperiments(e *env, rep *report, phases time.Duration) error {
	var (
		s                     *study.Study
		respT, reachT, render time.Duration
		events                uint64
		a0, a1, b0, b1        uint64
	)
	for round := 0; round < ladderRounds; round++ {
		var err error
		if s, err = ladderStudy(e, e.size.ladderScale, 1); err != nil {
			return err
		}
		var (
			resp  *study.Responsiveness
			reach *study.Reachability
		)
		a0, b0 = mallocs()
		t1 := timed(func() { resp = s.RunResponsiveness() })
		events = s.Camp.Eng.Processed()
		t2 := timed(func() { reach = s.RunReachability(resp) })
		a1, b1 = mallocs()
		t3 := timed(func() {
			resp.Render(io.Discard)
			reach.Render(io.Discard)
		})
		if round == 0 || t1 < respT {
			respT = t1
		}
		if round == 0 || t2 < reachT {
			reachT = t2
		}
		if round == 0 || t3 < render {
			render = t3
		}
	}
	probes := float64(simProbes(s))
	counters := s.Metrics("ladder").Merged
	rep.Metrics["study.responsiveness_s"] = value{V: respT.Seconds(), Unit: "s", N: ladderRounds}
	rep.Metrics["study.reachability_s"] = value{V: reachT.Seconds(), Unit: "s", N: ladderRounds}
	rep.Metrics["study.render_ms"] = value{V: ms(render), Unit: "ms", N: ladderRounds}
	rep.Metrics["study.self_frac"] = value{V: 1 - phases.Seconds()/respT.Seconds(), Unit: "frac", N: ladderRounds}
	rep.Metrics["study.allocs_per_probe"] = value{V: float64(a1-a0) / probes, Unit: "count", N: int(probes)}
	rep.Metrics["study.bytes_per_probe"] = value{V: float64(b1-b0) / probes, Unit: "B", N: int(probes)}
	rep.Metrics["netsim.events_per_s"] = value{V: float64(events) / respT.Seconds(), Unit: "1/s", N: int(events)}
	fwd := float64(counters["router.fwd"])
	rep.Metrics["netsim.slowpath_frac"] = value{V: float64(counters["router.slowpath"]) / fwd, Unit: "frac", N: int(fwd)}
	rep.Metrics["netsim.ratelimit_drop_frac"] = value{V: float64(counters["router.drop.ratelimit"]) / fwd, Unit: "frac", N: int(fwd)}
	return nil
}

// ladderDoubletree: the traceroute experiment on the single engine, and
// the probe economics it reports — simulated statistics, which a pure
// speed-up must not move.
func ladderDoubletree(e *env, rep *report) error {
	s, err := ladderStudy(e, e.size.traceScale, 1)
	if err != nil {
		return err
	}
	var dt *study.DoubletreeResult
	wall := timed(func() { dt = s.RunDoubletree(0, 0) })
	rep.Metrics["study.doubletree_s"] = one(wall.Seconds(), "s")
	rep.Metrics["trace.naive_probes"] = one(float64(dt.Naive.Probes), "count")
	rep.Metrics["trace.doubletree_probes"] = one(float64(dt.DT.Probes), "count")
	rep.Metrics["trace.probes_saved_frac"] = value{V: dt.SavedFrac(), Unit: "frac", N: dt.Naive.Probes}
	rep.Metrics["trace.stopset_bytes"] = one(float64(len(dt.StopSetBytes)), "B")
	return nil
}

// ladderTopology: the plane's build, freeze and clone, and the heap one
// plane keeps.
func ladderTopology(e *env, rep *report) error {
	cfg, err := topology.ProfileConfig(topology.Epoch2016, e.size.plane)
	if err != nil {
		return err
	}
	cfg.Seed = worlds[0]
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var topo *topology.Topology
	build := timed(func() { topo, err = topology.Build(cfg) })
	if err != nil {
		return err
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	var snap *topology.Snapshot
	freeze := timed(func() { snap = topology.SnapshotOf(topo) })
	var clones []float64
	for i := 0; i < 3; i++ {
		clones = append(clones, ms(timed(func() { snap.Clone() })))
	}
	rep.Metrics["topology.build_s"] = one(build.Seconds(), "s")
	rep.Metrics["topology.freeze_ms"] = one(ms(freeze), "ms")
	rep.Metrics["topology.clone_ms"] = medianOf(clones, "ms")
	rep.Metrics["topology.heap_mb_per_plane"] = one((float64(after.HeapAlloc)-float64(before.HeapAlloc))/(1<<20), "MB")
	rep.Metrics["topology.prefixes"] = one(float64(len(topo.Dests)), "count")
	runtime.KeepAlive(topo)
	return nil
}

// ladderServer: one client, one job at a time, against a daemon of its
// own — so every span is the service's cost and none is queueing — and
// the same specs in-process, for what the service adds.
func ladderServer(e *env, rep *report) error {
	s, err := newDaemonSession(e)
	if err != nil {
		return err
	}
	defer s.close()
	var cold []float64
	for _, op := range s.cold {
		cold = append(cold, ms(op.job.firstByte))
	}
	before, err := s.d.scrape()
	if err != nil {
		return err
	}
	var submit, accept, renderGet, statusGet, renderAll []float64
	var streamed int64
	var streaming time.Duration
	jobs := make([]opResult, e.size.ladderJobs)
	for i := range jobs {
		jobs[i] = s.d.runJob("bench-0", s.scale, s.specs[i%len(s.specs)], span{})
	}
	verify(jobs, s.want)
	for _, op := range jobs {
		if op.err != "" {
			return errors.New(op.err)
		}
		jt := op.job
		submit = append(submit, ms(jt.submit))
		accept = append(accept, ms(jt.firstByte-jt.submit))
		renderGet = append(renderGet, ms(jt.render-jt.streamEnd))
		statusGet = append(statusGet, ms(jt.status-jt.render))
		renderAll = append(renderAll, ms(jt.render))
		streamed += jt.bytes
		streaming += jt.streamEnd - jt.streamGet
	}
	var scrapes []float64
	var after promCounters
	for i := 0; i < 5; i++ {
		scrapes = append(scrapes, ms(timed(func() { after, err = s.d.scrape() })))
		if err != nil {
			return err
		}
	}
	delta := func(name string) float64 { return after[name] - before[name] }
	hits, misses := delta("rrstudyd_cache_hits_total"), delta("rrstudyd_cache_misses_total")
	onWorker, stolen := delta("rrstudyd_affinity_hits_total"), delta("rrstudyd_affinity_misses_total")

	// The same specs without the service: its worker's steps, in-process.
	var inProcess []float64
	var planes [len(worlds)]*topology.Snapshot
	for i := range jobs {
		spec := s.specs[i%len(s.specs)]
		if planes[spec.group] == nil {
			if planes[spec.group], err = worldSnapshot(s.scale, spec.world); err != nil {
				return err
			}
		}
		snap := planes[spec.group]
		var jobErr error
		inProcess = append(inProcess, ms(timed(func() { _, _, jobErr = inProcessJob(e, snap, spec) })))
		if jobErr != nil {
			return jobErr
		}
	}

	n := len(jobs)
	rep.Metrics["server.submit_ms_p50"] = medianOf(submit, "ms")
	rep.Metrics["server.accept_to_first_byte_ms_p50"] = medianOf(accept, "ms")
	rep.Metrics["server.stream_mb_per_s"] = value{V: float64(streamed) / (1 << 20) / streaming.Seconds(), Unit: "MB/s", N: n}
	rep.Metrics["server.render_get_ms_p50"] = medianOf(renderGet, "ms")
	rep.Metrics["server.status_get_ms_p50"] = medianOf(statusGet, "ms")
	rep.Metrics["server.metrics_get_ms_p50"] = medianOf(scrapes, "ms")
	rep.Metrics["server.cold_first_byte_ms"] = medianOf(cold, "ms")
	rep.Metrics["server.cache_hit_frac"] = value{V: hits / (hits + misses), Unit: "frac", N: n}
	rep.Metrics["server.affinity_hit_frac"] = value{V: onWorker / (onWorker + stolen), Unit: "frac", N: n}
	rep.Metrics["server.plane_build_s_sum"] = value{V: after["rrstudyd_plane_build_seconds_sum"], Unit: "s", N: int(after["rrstudyd_plane_build_seconds_count"])}
	rep.Metrics["server.rejected"] = one(after["rrstudyd_tenant_rejected_total"], "count")
	rep.Metrics["server.overhead_frac"] = value{V: 1 - quantile(inProcess, 0.5)/quantile(renderAll, 0.5), Unit: "frac", N: n}
	return nil
}
