package packet

// TCP sequence-number arithmetic, modulo 2^32. The comparison helpers follow
// the standard convention: a is "less than" b when the signed 32-bit
// difference a-b is negative, which handles wraparound for distances under
// 2^31.

// SeqLT reports a < b in sequence space.
func SeqLT(a, b uint32) bool { return int32(a-b) < 0 }

// SeqLEQ reports a <= b in sequence space.
func SeqLEQ(a, b uint32) bool { return int32(a-b) <= 0 }

// SeqGT reports a > b in sequence space.
func SeqGT(a, b uint32) bool { return int32(a-b) > 0 }

// SeqGEQ reports a >= b in sequence space.
func SeqGEQ(a, b uint32) bool { return int32(a-b) >= 0 }

// SeqMax returns the later of a and b in sequence space.
func SeqMax(a, b uint32) uint32 {
	if SeqGT(a, b) {
		return a
	}
	return b
}

// SeqMin returns the earlier of a and b in sequence space.
func SeqMin(a, b uint32) uint32 {
	if SeqLT(a, b) {
		return a
	}
	return b
}

// SeqDiff returns the signed distance a-b in sequence space.
func SeqDiff(a, b uint32) int32 { return int32(a - b) }

// SeqInWindow reports whether seq falls within [base, base+size) in sequence
// space. A zero-size window contains nothing.
func SeqInWindow(seq, base uint32, size uint32) bool {
	return SeqGEQ(seq, base) && SeqLT(seq, base+size)
}

// IPID arithmetic, modulo 2^16. The dual connection test compares the IPIDs
// of two acknowledgments to recover the order the remote host sent them;
// 16-bit signed distance handles counter wraparound for gaps under 2^15.

// IPIDLess reports a < b in IPID space.
func IPIDLess(a, b uint16) bool { return int16(a-b) < 0 }

// IPIDDiff returns the signed distance a-b in IPID space.
func IPIDDiff(a, b uint16) int16 { return int16(a - b) }

// SeqPattern is a payload that repeats with the sequence number: the byte
// at sequence position q is base + q%period, with q taken mod 2^32. Senders
// use it for content nobody reads but that must be deterministic.
type SeqPattern struct {
	base   byte
	period uint32
	buf    []byte // base + k%period for k in [0, period+0xffff)
}

// NewSeqPattern precomputes a pattern of the given base and period
// (1..256).
func NewSeqPattern(base byte, period int) *SeqPattern {
	p := &SeqPattern{base: base, period: uint32(period), buf: make([]byte, period+0xffff)}
	for k := range p.buf[:period] {
		p.buf[k] = base + byte(k)
	}
	// Doubling copies of whole periods: a tenth of the time of a
	// per-byte modulo loop.
	for n := period; n < len(p.buf); n *= 2 {
		copy(p.buf[n:], p.buf[:n])
	}
	return p
}

// At returns the n pattern bytes at sequence positions [seq, seq+n). Any
// segment that fits an IPv4 datagram is a sub-slice of the shared buffer,
// which callers must not modify. A segment that crosses the 2^32 wrap
// restarts the pattern there (2^32 is not in general a multiple of the
// period), so it, like an oversized one, is built byte by byte.
func (p *SeqPattern) At(seq, n uint32) []byte {
	if uint64(seq)+uint64(n) > 1<<32 || n >= 0xffff {
		b := make([]byte, n)
		for i := range b {
			b[i] = p.base + byte((seq+uint32(i))%p.period)
		}
		return b
	}
	off := seq % p.period
	return p.buf[off : off+n]
}
