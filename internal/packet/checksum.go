package packet

import (
	"encoding/binary"
	"math/bits"
	"net/netip"
)

// Checksum computes the Internet checksum (RFC 1071) over data: the one's
// complement of the one's complement sum of the data interpreted as a
// sequence of big-endian 16-bit words, with a trailing odd byte padded
// with zero.
func Checksum(data []byte) uint16 {
	return foldChecksum(sumWords(0, data))
}

// sumWords accumulates the one's-complement partial sum of data onto
// acc. The returned value has not been folded. Data is summed eight
// octets at a time as two 32-bit words: 2^16 ≡ 1 (mod 0xffff), so wider
// words fold to the same 16-bit sum the RFC's 16-bit walk gives, and a
// 60-octet header takes eight additions instead of thirty.
func sumWords(acc uint32, data []byte) uint32 {
	sum := uint64(acc)
	for len(data) >= 8 {
		v := binary.BigEndian.Uint64(data)
		sum += v>>32 + v&0xffffffff
		data = data[8:]
	}
	if len(data) >= 4 {
		sum += uint64(binary.BigEndian.Uint32(data))
		data = data[4:]
	}
	if len(data) >= 2 {
		sum += uint64(binary.BigEndian.Uint16(data))
		data = data[2:]
	}
	if len(data) == 1 {
		sum += uint64(data[0]) << 8
	}
	sum = sum>>32 + sum&0xffffffff
	sum = sum>>32 + sum&0xffffffff
	return uint32(sum)
}

// foldChecksum folds the 32-bit partial sum into 16 bits and complements it.
func foldChecksum(acc uint32) uint16 {
	for acc>>16 != 0 {
		acc = (acc & 0xffff) + acc>>16
	}
	return ^uint16(acc)
}

// patch8 writes v over hdr[off], updating hdr's checksum per RFC 1624
// eqn. 3, HC' = ~(~HC + ~m + m'), m and m' the sums of the edited octets
// before and after. From a checksum a full computation gives, that is
// again the full computation's: the sum holds ~HC ≠ 0, so it never folds
// to the 0xFFFF a full computation cannot give.
func patch8(hdr []byte, off int, v byte) {
	sh := 8 * (1 - uint(off)%2) // an even offset is a word's high octet
	old := uint32(hdr[off]) << sh
	hdr[off] = v
	adjustChecksum(hdr, 0xffff-old+uint32(v)<<sh)
}

// patch32 is patch8 for the big-endian v at hdr[off:off+4], which sums
// at an odd offset as the four octets rotated by one do at an even one.
func patch32(hdr []byte, off int, v uint32) {
	r := 8 * (off % 2)
	old := bits.RotateLeft32(binary.BigEndian.Uint32(hdr[off:]), r)
	binary.BigEndian.PutUint32(hdr[off:], v)
	v = bits.RotateLeft32(v, r)
	adjustChecksum(hdr, 2*0xffff-(old>>16+old&0xffff)+(v>>16+v&0xffff))
}

// adjustChecksum adds d, m' - m made positive by multiples of 0xFFFF,
// to the sum hdr's checksum complements.
func adjustChecksum(hdr []byte, d uint32) {
	acc := uint32(^binary.BigEndian.Uint16(hdr[10:])) + d
	acc = acc&0xffff + acc>>16
	binary.BigEndian.PutUint16(hdr[10:], ^uint16(acc+acc>>16))
}

// pseudoHeaderSum returns the unfolded checksum contribution of the IPv4
// pseudo-header used by UDP and TCP: source, destination, zero+protocol,
// and the transport-layer length.
func pseudoHeaderSum(src, dst netip.Addr, proto Protocol, length int) uint32 {
	var acc uint32
	if s, ok := addr4(src); ok {
		acc += uint32(s[0])<<8 | uint32(s[1])
		acc += uint32(s[2])<<8 | uint32(s[3])
	}
	if d, ok := addr4(dst); ok {
		acc += uint32(d[0])<<8 | uint32(d[1])
		acc += uint32(d[2])<<8 | uint32(d[3])
	}
	acc += uint32(proto)
	acc += uint32(length)
	return acc
}
