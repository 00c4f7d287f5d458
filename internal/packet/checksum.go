package packet

import (
	"encoding/binary"
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
