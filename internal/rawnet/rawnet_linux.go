//go:build linux

// Package rawnet implements the probe Transport over Linux raw sockets,
// so the same Prober that drives the simulator can send real ping-RR
// probes on a live network. Requires CAP_NET_RAW (typically root).
//
// The probe engine is single-threaded by contract; rawnet serializes
// receive callbacks and timer callbacks behind one mutex and exposes Do
// for callers to enter that context.
package rawnet

import (
	"fmt"
	"net/netip"
	"sync"
	"syscall"
	"time"
)

// Transport sends and receives raw IPv4 datagrams.
type Transport struct {
	local   netip.Addr
	sendFD  int
	recvFD  int
	start   time.Time
	mu      sync.Mutex
	recv    func(at time.Duration, pkt []byte)
	closed  bool
	readErr error
}

// New opens raw send (IP_HDRINCL) and receive (ICMP) sockets bound to
// the given local address and starts the reader.
func New(local netip.Addr) (*Transport, error) {
	if !local.Is4() {
		return nil, fmt.Errorf("rawnet: local address %v is not IPv4", local)
	}
	sendFD, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_RAW, syscall.IPPROTO_RAW)
	if err != nil {
		return nil, fmt.Errorf("rawnet: send socket: %w", err)
	}
	if err := syscall.SetsockoptInt(sendFD, syscall.IPPROTO_IP, syscall.IP_HDRINCL, 1); err != nil {
		syscall.Close(sendFD)
		return nil, fmt.Errorf("rawnet: IP_HDRINCL: %w", err)
	}
	recvFD, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_RAW, syscall.IPPROTO_ICMP)
	if err != nil {
		syscall.Close(sendFD)
		return nil, fmt.Errorf("rawnet: recv socket: %w", err)
	}
	t := &Transport{local: local, sendFD: sendFD, recvFD: recvFD, start: time.Now()}
	go t.readLoop()
	return t, nil
}

// LocalAddr implements probe.Transport.
func (t *Transport) LocalAddr() netip.Addr { return t.local }

// Now implements probe.Transport: real time since the transport opened.
func (t *Transport) Now() time.Duration { return time.Since(t.start) }

// Inject implements probe.Transport: the destination is read from the
// packet's own IPv4 header. Sendto is synchronous, so pkt is the
// caller's again on return.
func (t *Transport) Inject(pkt []byte) {
	if len(pkt) < 20 {
		return
	}
	var dst [4]byte
	copy(dst[:], pkt[16:20])
	addr := syscall.SockaddrInet4{Addr: dst}
	// Sendto errors on a measurement path are recorded, not fatal: the
	// probe will simply time out, like any lost packet.
	if err := syscall.Sendto(t.sendFD, pkt, 0, &addr); err != nil && t.readErr == nil {
		t.readErr = fmt.Errorf("rawnet: sendto %v: %w", netip.AddrFrom4(dst), err)
	}
}

// SetReceiver implements probe.Transport. It must be called from inside
// the event context (i.e. within Do, which is where probe.New runs), so
// it does not acquire the lock itself.
func (t *Transport) SetReceiver(fn func(at time.Duration, pkt []byte)) {
	t.recv = fn
}

// Schedule implements probe.Transport via real timers, entering the
// serialized event context when firing.
func (t *Transport) Schedule(d time.Duration, fn func()) {
	time.AfterFunc(d, func() {
		t.mu.Lock()
		defer t.mu.Unlock()
		if !t.closed {
			fn()
		}
	})
}

// ScheduleCall implements probe.Transport.
func (t *Transport) ScheduleCall(d time.Duration, fn func(uint64), arg uint64) {
	t.Schedule(d, func() { fn(arg) })
}

// Do runs fn inside the transport's serialized event context; callers
// must wrap Prober invocations (StartOne, StartBatch) in Do.
func (t *Transport) Do(fn func()) {
	t.mu.Lock()
	defer t.mu.Unlock()
	fn()
}

// Err returns the first asynchronous send/receive error, if any.
func (t *Transport) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.readErr
}

// Close shuts the sockets down; pending timers become no-ops.
func (t *Transport) Close() error {
	t.mu.Lock()
	t.closed = true
	t.mu.Unlock()
	e1 := syscall.Close(t.sendFD)
	e2 := syscall.Close(t.recvFD)
	if e1 != nil {
		return e1
	}
	return e2
}

// readLoop delivers received datagrams to the registered receiver.
func (t *Transport) readLoop() {
	buf := make([]byte, 65536)
	for {
		n, _, err := syscall.Recvfrom(t.recvFD, buf, 0)
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			return
		}
		if err != nil {
			if t.readErr == nil {
				t.readErr = fmt.Errorf("rawnet: recvfrom: %w", err)
			}
			t.mu.Unlock()
			return
		}
		if t.recv != nil && n > 0 {
			t.recv(t.Now(), buf[:n])
		}
		t.mu.Unlock()
	}
}
