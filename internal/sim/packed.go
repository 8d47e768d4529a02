package sim

import (
	"math/bits"

	"casq/internal/circuit"
)

// PackedBits is a bit-plane record of measured classical bits across a
// run's shots: plane c holds classical bit c of every shot, packed 64
// shots per word (shot s lives at word s/64, bit s%64). It is the native
// output format of a bit-plane engine — one word write records a bit for
// 64 shots — and the format downstream layers (exec counts merging, expval
// marginals) accumulate from without unpacking per shot.
type PackedBits struct {
	Shots  int
	Planes [][]uint64 // [classical bit][shot word]
}

// NewPackedBits returns an all-zero record for ncb classical bits over the
// given shot count.
func NewPackedBits(ncb, shots int) PackedBits {
	words := (shots + ShotBlockSize - 1) / ShotBlockSize
	planes := make([][]uint64, ncb)
	backing := make([]uint64, ncb*words)
	for c := range planes {
		planes[c] = backing[c*words : (c+1)*words]
	}
	return PackedBits{Shots: shots, Planes: planes}
}

// Set records classical bit c of shot s as v (0 or 1).
func (pb PackedBits) Set(c, s, v int) {
	w, b := s/ShotBlockSize, uint(s%ShotBlockSize)
	if v != 0 {
		pb.Planes[c][w] |= 1 << b
	} else {
		pb.Planes[c][w] &^= 1 << b
	}
}

// Bit returns classical bit c of shot s.
func (pb PackedBits) Bit(c, s int) int {
	w, b := s/ShotBlockSize, uint(s%ShotBlockSize)
	return int(pb.Planes[c][w]>>b) & 1
}

// tailMask returns the valid-bit mask of plane word w.
func (pb PackedBits) tailMask(w int) uint64 {
	if rem := pb.Shots - w*ShotBlockSize; rem < ShotBlockSize {
		return 1<<uint(rem) - 1
	}
	return ^uint64(0)
}

// Ones counts the shots whose classical bit c is 1 — one popcount per 64
// shots.
func (pb PackedBits) Ones(c int) int {
	n := 0
	for w, word := range pb.Planes[c] {
		n += bits.OnesCount64(word & pb.tailMask(w))
	}
	return n
}

// OnesParity counts the shots whose XOR over the listed classical bits is
// 1 — the packed accumulator behind arbitrary Z-moment estimation
// (<prod Z_i> = 1 - 2*OnesParity/Shots). A bit index out of range
// contributes 0 to every shot's parity, mirroring the counts-map convention
// that an unrecorded bit reads 0.
func (pb PackedBits) OnesParity(cbits []int) int {
	n := 0
	words := 0
	if len(pb.Planes) > 0 {
		words = len(pb.Planes[0])
	} else {
		words = (pb.Shots + ShotBlockSize - 1) / ShotBlockSize
	}
	for w := 0; w < words; w++ {
		var par uint64
		for _, c := range cbits {
			if c >= 0 && c < len(pb.Planes) {
				par ^= pb.Planes[c][w]
			}
		}
		n += bits.OnesCount64(par & pb.tailMask(w))
	}
	return n
}

// Append returns a record holding pb's shots followed by other's — the
// instance-order concatenation the executor uses to accumulate per-instance
// packed outcomes into one job-wide record. Both records must have the same
// plane count; other's planes are shifted onto pb's tail so shot s of other
// becomes shot pb.Shots+s of the result.
func (pb PackedBits) Append(other PackedBits) PackedBits {
	out := NewPackedBits(len(pb.Planes), pb.Shots+other.Shots)
	base, off := pb.Shots/ShotBlockSize, uint(pb.Shots%ShotBlockSize)
	for c := range pb.Planes {
		dst := out.Planes[c]
		copy(dst, pb.Planes[c])
		if off != 0 {
			dst[base] &= 1<<off - 1 // scrub dirty bits beyond pb's tail
		}
		for w, word := range other.Planes[c] {
			word &= other.tailMask(w)
			dst[base+w] |= word << off
			if off != 0 {
				if hi := word >> (ShotBlockSize - off); hi != 0 {
					dst[base+w+1] |= hi
				}
			}
		}
	}
	return out
}

// CountsInto expands the planes into a bitstring-counts map (BitsKey
// layout: classical bit i at string position i), adding to any existing
// entries. The transpose touches each shot once; everything upstream of it
// stayed word-parallel.
func (pb PackedBits) CountsInto(m map[string]int) {
	scratch := make([]int, len(pb.Planes))
	for s := 0; s < pb.Shots; s++ {
		w, b := s/ShotBlockSize, uint(s%ShotBlockSize)
		for c := range pb.Planes {
			scratch[c] = int(pb.Planes[c][w]>>b) & 1
		}
		m[BitsKey(scratch)]++
	}
}

// Counts expands the planes into a fresh Result.
func (pb PackedBits) Counts() Result {
	res := Result{Counts: map[string]int{}, Shots: pb.Shots}
	pb.CountsInto(res.Counts)
	return res
}

// PackedSampler is the optional engine capability of producing measured
// bits as bit-planes. The executor prefers it for counts jobs so
// aggregation consumes packed outcome words instead of per-shot keys where
// the engine already has them packed.
type PackedSampler interface {
	CountsPacked(c *circuit.Circuit) (PackedBits, error)
}
