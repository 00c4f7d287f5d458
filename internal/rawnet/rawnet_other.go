//go:build !linux

// Package rawnet implements the probe Transport over raw sockets.
// Only Linux is supported; other platforms get a constructor that
// reports so.
package rawnet

import (
	"errors"
	"net/netip"
	"time"
)

// ErrUnsupported reports that raw-socket probing is unavailable.
var ErrUnsupported = errors.New("rawnet: raw-socket probing is only implemented on linux")

// Transport is unavailable on this platform.
type Transport struct{}

// New always fails on non-Linux platforms.
func New(local netip.Addr) (*Transport, error) { return nil, ErrUnsupported }

// LocalAddr is unreachable (New never succeeds).
func (t *Transport) LocalAddr() netip.Addr { return netip.Addr{} }

// Now is unreachable.
func (t *Transport) Now() time.Duration { return 0 }

// Inject is unreachable.
func (t *Transport) Inject(pkt []byte) {}

// SetReceiver is unreachable.
func (t *Transport) SetReceiver(fn func(at time.Duration, pkt []byte)) {}

// Schedule is unreachable.
func (t *Transport) Schedule(d time.Duration, fn func()) {}

// ScheduleCall is unreachable.
func (t *Transport) ScheduleCall(d time.Duration, fn func(uint64), arg uint64) {}

// Do is unreachable.
func (t *Transport) Do(fn func()) {}

// Err is unreachable.
func (t *Transport) Err() error { return ErrUnsupported }

// Close is unreachable.
func (t *Transport) Close() error { return nil }
