package netsim

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"recordroute/internal/packet"
)

// receiveReference is the forward path as it was before Router.Receive
// started editing datagrams in wire form: decode the header into
// structs, record into the decoded options, re-serialize. It is kept as
// the oracle FuzzForwardEquivalence holds the wire-level path to — same
// bytes out, same counters in the same order, same drop decisions.
func (r *Router) receiveReference(pkt []byte, on *Iface) {
	trace := func(event string) {
		if r.net.tracer != nil {
			r.net.tracer(r.net.Now(), r.Name(), event, r.net.ip.Src, r.net.ip.Dst)
		}
	}
	if f := r.rec().faults; f >= 0 && r.net.p.routerFaults[f].offline.active(r.net.Now()) {
		r.count(cChaosOffline)
		return
	}
	payload, err := r.net.ip.Decode(pkt)
	if err != nil {
		r.countName("router.drop.parse")
		return
	}
	hasOpts := len(r.net.ip.Options) > 0
	if hasOpts {
		if r.rec().behavior.DropOptions {
			r.countName("router.drop.filter")
			trace("router.drop.filter")
			return
		}
		if lim := r.optionsLimiter(); lim != nil && !lim.Allow(r.net.Now()) {
			r.countName("router.drop.ratelimit")
			trace("router.drop.ratelimit")
			return
		}
		r.count(cRouterSlowpath)
		trace("router.slowpath")
	}
	if k, _ := key4(r.net.ip.Dst); r.ownsAddr(k) {
		if found, err := r.net.ip.SourceRouteOption(&r.net.sr); found && err == nil && !r.net.sr.Exhausted() {
			r.forwardSourceRouted(payload)
			return
		}
		r.deliverLocal(payload)
		return
	}
	if !r.rec().behavior.NoTTLDecrement {
		if r.net.ip.TTL <= 1 {
			if !r.rec().behavior.NoTimeExceeded {
				r.sendTimeExceeded(pkt, on)
			} else {
				r.countName("router.drop.ttl.silent")
			}
			r.countName("router.ttl.expired")
			trace("router.ttl.expired")
			return
		}
		r.net.ip.TTL--
	}
	egress := r.lookupRoute(r.net.ip.Dst)
	if egress == nil {
		r.countName("router.drop.noroute")
		trace("router.drop.noroute")
		return
	}
	if hasOpts && !r.rec().behavior.NoStampRR {
		if found, err := r.net.ip.RecordRouteOption(&r.net.rr); found && err == nil && !r.net.rr.Full() {
			r.net.rr.Record(egress.Addr)
			if err := r.net.ip.SetRecordRoute(&r.net.rr); err != nil {
				r.countName("router.drop.rrencode")
				return
			}
			r.count(cRouterStamped)
			trace("router.rr.stamped")
		}
	}
	out, err := r.net.ip.AppendTo(r.net.getBuf(), payload)
	if err != nil {
		r.countName("router.drop.encode")
		return
	}
	r.count(cRouterFwd)
	if hasOpts && r.rec().behavior.SlowPathDelay > 0 {
		r.net.engine.Schedule(r.rec().behavior.SlowPathDelay, func() { egress.Send(out) })
		return
	}
	egress.Send(out)
}

// The reference reads like the code it was: these adapters stand where
// the old Router's fields and methods did.
func (r *Router) count(id int)                         { r.net.countAt(r.rec().node, id) }
func (r *Router) countName(name string)                { r.net.countName(r.rec().node, name) }
func (r *Router) optionsLimiter() *TokenBucket         { return r.net.optionsLimiter(r.idx) }
func (r *Router) ownsAddr(k uint32) bool               { return r.rec().ownsAddr(k) }
func (r *Router) forwardSourceRouted(pl []byte)        { r.net.forwardSourceRouted(r.idx, pl) }
func (r *Router) deliverLocal(pl []byte)               { r.net.deliverLocal(r.idx, pl) }
func (r *Router) sendTimeExceeded(o []byte, on *Iface) { r.net.sendTimeExceeded(r.idx, o, on.id) }
func (r *Router) lookupRoute(dst netip.Addr) *Iface {
	return r.net.iface(r.net.lookupRoute(r.idx, dst))
}

// tap is a Node that records every datagram delivered to it.
type tap struct {
	name string
	got  []string // "<at> <hex bytes>"
}

func (t *tap) Name() string { return t.name }
func (t *tap) Receive(pkt []byte, on *Iface) {
	t.got = append(t.got, fmt.Sprintf("%v %x", on.net.Now(), pkt))
}

// forwardRig is tap — router — tap: everything the router emits in
// either direction is captured, along with the order of its counter
// bumps and trace events.
type forwardRig struct {
	net         *Network
	r           *Router
	in          *Iface
	left, right *tap
	events      []string
}

// Rig addresses: the router owns 10.0.0.1 and 10.9.0.1, routes the low
// half of the address space right and 10/8 left (where Time Exceeded
// errors for 10.x sources go), and has no route for the high half.
func newForwardRig(mode uint8) *forwardRig {
	rb := RouterBehavior{
		NoStampRR:      mode&1 != 0,
		NoTTLDecrement: mode&2 != 0,
		DropOptions:    mode&4 != 0,
		NoTimeExceeded: mode&8 != 0,
	}
	if mode&16 != 0 {
		rb.OptionsRateLimit, rb.OptionsRateBurst = 1, 2
	}
	if mode&32 != 0 {
		rb.SlowPathDelay = time.Millisecond
	}
	if mode&64 != 0 {
		rb.ICMPErrorRateLimit = 2
	}
	g := &forwardRig{net: New(), left: &tap{name: "left"}, right: &tap{name: "right"}}
	g.r = g.net.AddRouter("r", rb)
	g.net.register(g.left)
	g.net.register(g.right)
	_, g.in = g.net.Connect(g.left, g.r, a("10.0.0.2"), a("10.0.0.1"), time.Millisecond)
	out, _ := g.net.Connect(g.r, g.right, a("10.9.0.1"), a("10.9.0.2"), time.Millisecond)
	g.r.AddRoute(netip.MustParsePrefix("0.0.0.0/1"), out)
	g.r.AddRoute(netip.MustParsePrefix("10.0.0.0/8"), g.in)
	g.net.SetEventHook(func(at time.Duration, counter string) {
		g.events = append(g.events, fmt.Sprintf("%v count %s", at, counter))
	})
	if mode&128 != 0 {
		g.net.SetTracer(func(at time.Duration, node, event string, src, dst netip.Addr) {
			g.events = append(g.events, fmt.Sprintf("%v trace %s %s %v>%v", at, node, event, src, dst))
		})
	}
	return g
}

// run hands pkt to receive three times — back to back, then once a
// virtual second later — so policers, IP-ID counters and the buffer
// pool see more than a first packet.
func (g *forwardRig) run(pkt []byte, receive func([]byte, *Iface)) {
	deliver := func() { receive(append([]byte(nil), pkt...), g.in) }
	g.net.Engine().Schedule(0, deliver)
	g.net.Engine().Schedule(0, deliver)
	g.net.Engine().Schedule(time.Second, deliver)
	g.net.Engine().Run()
}

// fixUp makes a mutated input likely to get past header validation, so
// the fuzzer spends its time behind the checksum: fix&1 rewrites
// TotalLength to the buffer length less fix>>4 trailing bytes, fix&2
// recomputes the header checksum.
func fixUp(data []byte, fix uint8) []byte {
	data = append([]byte(nil), data...)
	if len(data) < 20 {
		return data
	}
	hdrLen := int(data[0]&0xf) * 4
	if fix&1 != 0 {
		if total := len(data) - int(fix>>4); total >= hdrLen {
			binary.BigEndian.PutUint16(data[2:], uint16(total))
		}
	}
	if fix&2 != 0 && hdrLen >= 20 && hdrLen <= len(data) {
		data[10], data[11] = 0, 0
		binary.BigEndian.PutUint16(data[10:], packet.Checksum(data[:hdrLen]))
	}
	return data
}

// rawDatagram assembles a datagram around a hand-written options area
// (padded to a 4-octet boundary with pad); fixUp supplies the lengths
// and checksum.
func rawDatagram(ttl byte, dst netip.Addr, opts []byte, pad byte) []byte {
	for len(opts)%4 != 0 {
		opts = append(opts, pad)
	}
	d := dst.As4()
	b := []byte{byte(4<<4 | (20+len(opts))/4), 0, 0, 0, 0, 7, 0, 0, ttl, byte(packet.ProtocolICMP), 0, 0, 10, 0, 0, 2, d[0], d[1], d[2], d[3]}
	b = append(b, opts...)
	return packet.NewEchoRequest(7, 9, []byte("probe")).AppendTo(b)
}

// packetCorpus returns the []byte values of the committed packet fuzz
// corpora.
func packetCorpus(t testing.TB) [][]byte {
	files, err := filepath.Glob(filepath.Join("..", "packet", "testdata", "fuzz", "*", "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("packet fuzz corpus not found: %v", err)
	}
	var out [][]byte
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(raw), "\n") {
			if q, ok := strings.CutPrefix(line, "[]byte("); ok {
				s, err := strconv.Unquote(strings.TrimSuffix(q, ")"))
				if err != nil {
					t.Fatalf("%s: %v", f, err)
				}
				out = append(out, []byte(s))
			}
		}
	}
	return out
}

func rrOpt(slots int, pointer byte) []byte {
	return append([]byte{byte(packet.OptRecordRoute), byte(3 + 4*slots), pointer}, make([]byte, 4*slots)...)
}

// tsOpt is an Internet Timestamp option (type 68), which routers carry
// as opaque bytes: pointer, overflow/flag octet, body.
func tsOpt(pointer, flags byte, body ...byte) []byte {
	return append([]byte{68, byte(4 + len(body)), pointer, flags}, body...)
}

// FuzzForwardEquivalence holds the wire-level forward path to the
// struct reference: for any datagram, under any router behaviour, both
// must emit the same bytes at the same times on the same links, bump
// the same counters in the same order, and emit the same trace events.
func FuzzForwardEquivalence(f *testing.F) {
	far, self := a("10.9.0.2"), a("10.9.0.1")
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	nops := func(n int) []byte { return bytes.Repeat([]byte{byte(packet.OptNOP)}, n) }
	seeds := [][]byte{
		rawDatagram(64, far, nil, 0),
		rawDatagram(64, far, rrOpt(9, 4), 0),                             // empty
		rawDatagram(64, far, rrOpt(9, 36), 0),                            // one slot left
		rawDatagram(64, far, rrOpt(9, 40), 0),                            // full
		rawDatagram(64, far, rrOpt(0, 4), 0),                             // zero slots
		rawDatagram(64, far, rrOpt(3, 6), 0),                             // misaligned pointer
		rawDatagram(64, far, rrOpt(3, 2), 0),                             // pointer below minimum
		rawDatagram(64, far, rrOpt(3, 200), 0),                           // pointer far beyond
		rawDatagram(64, far, []byte{7, 6, 4, 1, 2, 3}, 0),                // ragged slot area
		rawDatagram(64, far, cat(rrOpt(2, 4), rrOpt(2, 4)), 0),           // two RR options
		rawDatagram(64, far, cat(nops(5), rrOpt(2, 8)), 0),               // NOP run
		rawDatagram(64, far, cat(rrOpt(1, 4), nops(2), []byte{0}), 0xee), // non-zero bytes after EOL, same word
		rawDatagram(64, far, cat(nops(1), []byte{0}), 0xee),
		rawDatagram(64, far, cat(tsOpt(5, 0, make([]byte, 8)...), []byte{0}), 0xee),
		rawDatagram(64, far, cat(rrOpt(1, 4), []byte{0, 0xee, 0xee, 0xee, 0xee, 0xee}), 0xee), // EOL words before the end: header shrinks
		rawDatagram(64, far, []byte{0, 7, 7, 4}, 0xee),                                        // EOL first: options vanish
		rawDatagram(64, far, nops(4), 0),                                                      // NOPs only
		// Timestamp options in each mode, full and malformed: the slow
		// path carries them unchanged.
		rawDatagram(64, far, tsOpt(5, 0, make([]byte, 8)...), 0),
		rawDatagram(64, far, tsOpt(13, 1, make([]byte, 16)...), 0),
		rawDatagram(64, far, tsOpt(5, 3, 10, 9, 0, 1, 0, 0, 0, 0, 10, 0, 0, 1, 0, 0, 0, 0), 0),
		rawDatagram(64, far, tsOpt(5, 3, 1, 2, 3, 4, 0, 0, 0, 0), 0),
		rawDatagram(64, far, tsOpt(13, 0x31, make([]byte, 8)...), 0),
		rawDatagram(64, far, tsOpt(9, 0xf0, make([]byte, 4)...), 0),
		rawDatagram(64, far, tsOpt(5, 2, make([]byte, 8)...), 0),
		rawDatagram(64, far, tsOpt(7, 1, make([]byte, 8)...), 0),
		rawDatagram(64, far, tsOpt(5, 1, make([]byte, 6)...), 0),
		rawDatagram(64, far, cat(rrOpt(4, 8), tsOpt(5, 1, make([]byte, 16)...)), 0), // RR + TS
		rawDatagram(64, far, []byte{7, 1, 4}, 0),                                    // option length below 2
		rawDatagram(64, far, []byte{7, 60, 4}, 0),                                   // option overruns the header
		rawDatagram(64, far, []byte{1, 1, 1, 7}, 0),                                 // option type with no length octet
		rawDatagram(1, far, rrOpt(9, 8), 0),                                         // expires here
		rawDatagram(0, far, rrOpt(9, 8), 0),
		rawDatagram(2, far, rrOpt(9, 8), 0),
		rawDatagram(255, far, rrOpt(9, 8), 0),
		rawDatagram(64, self, rrOpt(9, 8), 0),           // addressed to the router
		rawDatagram(64, a("200.1.1.1"), rrOpt(9, 8), 0), // no route
	}
	for _, s := range seeds {
		for _, mode := range []uint8{0, 1, 2, 4, 8 | 128, 16 | 32, 64 | 128} {
			f.Add(s, mode, uint8(3))
		}
	}
	f.Add(seeds[1], uint8(0), uint8(3|5<<4)) // trailing bytes beyond TotalLength
	f.Add(seeds[1], uint8(0), uint8(1))      // stale checksum
	for _, s := range packetCorpus(f) {
		f.Add(s, uint8(128), uint8(0))
		// Quoted datagrams inside ICMP errors carry the option-bearing
		// headers; they start 28 bytes in (outer header + ICMP header).
		if len(s) > 28+20 {
			f.Add(s[28:], uint8(128), uint8(3))
		}
	}

	f.Fuzz(func(t *testing.T, data []byte, mode, fix uint8) {
		pkt := fixUp(data, fix)
		got, want := newForwardRig(mode), newForwardRig(mode)
		got.run(pkt, got.r.Receive)
		want.run(pkt, want.r.receiveReference)
		if !reflect.DeepEqual(got.events, want.events) {
			t.Errorf("events diverge for %x mode %#x:\n wire: %q\n  ref: %q", pkt, mode, got.events, want.events)
		}
		if !reflect.DeepEqual(got.right.got, want.right.got) {
			t.Errorf("forwarded bytes diverge for %x mode %#x:\n wire: %q\n  ref: %q", pkt, mode, got.right.got, want.right.got)
		}
		if !reflect.DeepEqual(got.left.got, want.left.got) {
			t.Errorf("returned bytes diverge for %x mode %#x:\n wire: %q\n  ref: %q", pkt, mode, got.left.got, want.left.got)
		}
		if g, w := got.net.Counters(), want.net.Counters(); !reflect.DeepEqual(g, w) {
			t.Errorf("counters diverge for %x mode %#x:\n wire: %q\n  ref: %q", pkt, mode, g, w)
		}
	})
}
