// Package probe is the measurement engine: a scamper-like prober that
// paces crafted probes onto a transport, matches responses (echo
// replies, time-exceeded and port-unreachable errors with quoted
// headers) back to outstanding probes, extracts Record Route contents,
// and reports per-probe results.
//
// The prober reaches the network through the Transport interface.
// SimTransport, a simulated vantage point (internal/netsim), is the one
// production implementation; the interface stays so tests can drive a
// Prober from a scripted fake. Transports must deliver packets and
// timer callbacks from a single goroutine at a time.
package probe

import (
	"net/netip"
	"time"

	"recordroute/internal/netsim"
)

// Transport carries probe packets for a Prober and schedules its timers.
type Transport interface {
	// LocalAddr is the source address probes are sent from.
	LocalAddr() netip.Addr
	// Inject transmits a serialized IPv4 datagram. It does not keep pkt:
	// an implementation sends or copies the bytes before returning, and
	// the prober builds its next probe in the same buffer.
	Inject(pkt []byte)
	// SetReceiver registers the packet callback; pkt is valid only for
	// the duration of the call.
	SetReceiver(fn func(at time.Duration, pkt []byte))
	// Schedule runs fn after d.
	Schedule(d time.Duration, fn func())
	// ScheduleCall runs fn(arg) after d. It is Schedule for timers that
	// would otherwise need a closure each — it orders against Schedule
	// as if it were Schedule(d, func() { fn(arg) }).
	ScheduleCall(d time.Duration, fn func(uint64), arg uint64)
	// Now returns the transport's clock.
	Now() time.Duration
}

// SimTransport adapts a netsim vantage-point host to the Transport
// interface.
type SimTransport struct {
	host *netsim.Host
	eng  *netsim.Engine
}

// NewSimTransport wraps host (its sniffer is claimed) on the engine eng.
func NewSimTransport(host *netsim.Host, eng *netsim.Engine) *SimTransport {
	return &SimTransport{host: host, eng: eng}
}

// LocalAddr implements Transport.
func (s *SimTransport) LocalAddr() netip.Addr { return s.host.Addr() }

// Inject implements Transport.
func (s *SimTransport) Inject(pkt []byte) { s.host.Inject(pkt) }

// SetReceiver implements Transport.
func (s *SimTransport) SetReceiver(fn func(at time.Duration, pkt []byte)) {
	if fn == nil {
		s.host.SetSniffer(nil)
		return
	}
	s.host.SetSniffer(netsim.SnifferFunc(fn))
}

// Schedule implements Transport.
func (s *SimTransport) Schedule(d time.Duration, fn func()) { s.eng.Schedule(d, fn) }

// ScheduleCall implements Transport.
func (s *SimTransport) ScheduleCall(d time.Duration, fn func(uint64), arg uint64) {
	s.eng.ScheduleCall(d, fn, arg)
}

// Now implements Transport.
func (s *SimTransport) Now() time.Duration { return s.eng.Now() }
