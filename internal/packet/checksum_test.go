package packet

import (
	"testing"
	"testing/quick"
)

func TestChecksumKnownVectors(t *testing.T) {
	// RFC 1071 worked example: bytes 00 01 f2 03 f4 f5 f6 f7 sum to
	// ddf2 before complement, so the checksum is ^0xddf2 = 0x220d.
	tests := []struct {
		name string
		data []byte
		want uint16
	}{
		{"rfc1071 example", []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}, 0x220d},
		{"empty", nil, 0xffff},
		{"single zero byte", []byte{0x00}, 0xffff},
		{"single byte pads right", []byte{0xab}, ^uint16(0xab00)},
		{"all ones word", []byte{0xff, 0xff}, 0x0000},
		{"carry folds", []byte{0xff, 0xff, 0x00, 0x01}, ^uint16(0x0001)},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := Checksum(tc.data); got != tc.want {
				t.Errorf("Checksum(% x) = %#04x, want %#04x", tc.data, got, tc.want)
			}
		})
	}
}

func TestChecksumVerifiesToZero(t *testing.T) {
	// Inserting the computed checksum into a packet must make the whole
	// buffer sum to zero — the receiver-side verification invariant.
	check := func(data []byte) bool {
		if len(data) < 2 {
			return true
		}
		buf := make([]byte, len(data))
		copy(buf, data)
		buf[0], buf[1] = 0, 0
		cs := Checksum(buf)
		buf[0], buf[1] = byte(cs>>8), byte(cs)
		return Checksum(buf) == 0
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestChecksumOddEvenSplitInvariance(t *testing.T) {
	// Summing a buffer in one pass or as two even-aligned chunks must
	// agree: sumWords is fold-free so it is associative over even splits.
	data := make([]byte, 64)
	for i := range data {
		data[i] = byte(i*31 + 7)
	}
	whole := foldChecksum(sumWords(0, data))
	split := foldChecksum(sumWords(sumWords(0, data[:32]), data[32:]))
	if whole != split {
		t.Errorf("split sum %#04x != whole sum %#04x", split, whole)
	}
}

// TestChecksumMatchesSixteenBitWalk holds the wide-word summation to
// the RFC 1071 definition it shortcuts, over every length and alignment
// tail, from any starting partial sum.
func TestChecksumMatchesSixteenBitWalk(t *testing.T) {
	walk := func(acc uint32, data []byte) uint16 {
		sum := uint64(acc)
		for i := 0; i+1 < len(data); i += 2 {
			sum += uint64(data[i])<<8 | uint64(data[i+1])
		}
		if len(data)%2 == 1 {
			sum += uint64(data[len(data)-1]) << 8
		}
		for sum>>16 != 0 {
			sum = sum&0xffff + sum>>16
		}
		return ^uint16(sum)
	}
	check := func(acc uint32, data []byte) bool {
		for n := 0; n <= len(data); n++ {
			if foldChecksum(sumWords(acc, data[:n])) != walk(acc, data[:n]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
	ones := make([]byte, 4096)
	for i := range ones {
		ones[i] = 0xff
	}
	if !check(0xffffffff, ones) {
		t.Error("all-ones buffer diverges from the 16-bit walk")
	}
}
