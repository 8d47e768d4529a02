package sim

import (
	"math/rand"
	"sync"
	"testing"
)

func TestShotBlocks(t *testing.T) {
	for _, tc := range []struct{ shots, want int }{
		{-3, 1}, {0, 1}, {1, 1}, {63, 1}, {64, 1}, {65, 2}, {128, 2}, {129, 3}, {100000, 1563},
	} {
		if got := ShotBlocks(tc.shots); got != tc.want {
			t.Errorf("ShotBlocks(%d) = %d, want %d", tc.shots, got, tc.want)
		}
	}
}

// TestForEachShotBlockCoverage checks the unit contract: every full
// 64-shot block is claimed exactly once, and the remainder tail runs every
// leftover shot exactly once, in index order, regardless of worker count.
func TestForEachShotBlockCoverage(t *testing.T) {
	for _, workers := range []int{1, 3, 7, 64} {
		const shots = 3*ShotBlockSize + 9
		var mu sync.Mutex
		blockSeen := map[int]int{}
		var tailSeen []int
		ForEachShotBlock(shots, workers, func() int { return 0 },
			func(b, base int, _ int) {
				if base != b*ShotBlockSize {
					t.Errorf("workers=%d: block %d got base %d, want %d", workers, b, base, b*ShotBlockSize)
				}
				mu.Lock()
				blockSeen[b]++
				mu.Unlock()
			},
			func(i int, _ int) {
				mu.Lock()
				tailSeen = append(tailSeen, i)
				mu.Unlock()
			})
		for b := 0; b < 3; b++ {
			if blockSeen[b] != 1 {
				t.Errorf("workers=%d: block %d claimed %d times, want 1", workers, b, blockSeen[b])
			}
		}
		if len(blockSeen) != 3 {
			t.Errorf("workers=%d: %d distinct blocks, want 3", workers, len(blockSeen))
		}
		if len(tailSeen) != 9 {
			t.Fatalf("workers=%d: %d tail shots, want 9", workers, len(tailSeen))
		}
		for j, i := range tailSeen {
			if i != 3*ShotBlockSize+j {
				t.Errorf("workers=%d: tail[%d] = %d, want %d (index order)", workers, j, i, 3*ShotBlockSize+j)
			}
		}
	}
}

// TestForEachShotBlockStateReuse pins per-worker state construction: at
// most one state per worker, exactly one when serial.
func TestForEachShotBlockStateReuse(t *testing.T) {
	var mu sync.Mutex
	states := 0
	mk := func() int {
		mu.Lock()
		states++
		mu.Unlock()
		return 0
	}
	states = 0
	ForEachShotBlock(10*ShotBlockSize, 1, mk, func(b, base int, _ int) {}, func(i int, _ int) {})
	if states != 1 {
		t.Errorf("serial loop built %d states, want 1", states)
	}
	states = 0
	ForEachShotBlock(100*ShotBlockSize, 4, mk, func(b, base int, _ int) {}, func(i int, _ int) {})
	if states > 4 {
		t.Errorf("4-worker loop built %d states, want <= 4", states)
	}
}

// TestBlockSeedDistinct spot-checks that nearby (seed, block) pairs derive
// distinct block seeds — collisions would duplicate whole 64-shot words.
func TestBlockSeedDistinct(t *testing.T) {
	seen := map[int64]bool{}
	for seed := int64(0); seed < 8; seed++ {
		for b := 0; b < 256; b++ {
			s := BlockSeed(seed, b)
			if seen[s] {
				t.Fatalf("BlockSeed collision at seed=%d block=%d", seed, b)
			}
			seen[s] = true
		}
	}
}

type blockAllocState struct{ sum uint64 }

var blockAllocSink uint64

// TestShotBlockLoopZeroAlloc mirrors TestShotLoopZeroAlloc for the
// block-granular loop: with a reused state, the serial loop — block claims
// plus remainder tail — performs zero heap allocations.
func TestShotBlockLoopZeroAlloc(t *testing.T) {
	st := &blockAllocState{}
	mk := func() *blockAllocState { return st }
	onBlock := func(b, base int, s *blockAllocState) { s.sum += uint64(b) ^ uint64(base) }
	onTail := func(i int, s *blockAllocState) { s.sum += uint64(i) }
	allocs := testing.AllocsPerRun(50, func() {
		ForEachShotBlock(8*ShotBlockSize+5, 1, mk, onBlock, onTail)
	})
	blockAllocSink = st.sum
	if allocs != 0 {
		t.Errorf("steady-state block loop allocates %.1f objects per run, want 0", allocs)
	}
}

func TestPackedBitsRoundTrip(t *testing.T) {
	pb := NewPackedBits(3, 70)
	pb.Set(0, 0, 1)
	pb.Set(1, 64, 1)
	pb.Set(2, 69, 1)
	pb.Set(2, 69, 0)
	pb.Set(0, 33, 1)
	if pb.Bit(0, 0) != 1 || pb.Bit(0, 33) != 1 || pb.Bit(1, 64) != 1 {
		t.Error("set bits not read back")
	}
	if pb.Bit(2, 69) != 0 || pb.Bit(0, 1) != 0 {
		t.Error("cleared bits read as set")
	}
	if got := pb.Ones(0); got != 2 {
		t.Errorf("Ones(0) = %d, want 2", got)
	}
	if got := pb.OnesParity([]int{0, 1}); got != 3 {
		t.Errorf("OnesParity(0,1) = %d, want 3", got)
	}
}

// TestPackedBitsTailMask: plane words beyond the shot count must not leak
// into popcounts even if set.
func TestPackedBitsTailMask(t *testing.T) {
	pb := NewPackedBits(1, 66)
	pb.Planes[0][1] = ^uint64(0) // bits 64..127 all set; only 64, 65 valid
	if got := pb.Ones(0); got != 2 {
		t.Errorf("Ones with dirty tail = %d, want 2", got)
	}
	if got := pb.OnesParity([]int{0, 0}); got != 0 {
		t.Errorf("OnesParity(self) = %d, want 0", got)
	}
}

// TestPackedBitsAppend pins the instance-order concatenation against a
// per-shot rebuild, at offsets that exercise the word-boundary shift.
func TestPackedBitsAppend(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, tc := range []struct{ aShots, bShots int }{
		{0, 5}, {5, 0}, {64, 64}, {70, 3}, {63, 130}, {1, 64}, {100, 29},
	} {
		a, b := NewPackedBits(2, tc.aShots), NewPackedBits(2, tc.bShots)
		for c := 0; c < 2; c++ {
			for s := 0; s < tc.aShots; s++ {
				a.Set(c, s, rng.Intn(2))
			}
			for s := 0; s < tc.bShots; s++ {
				b.Set(c, s, rng.Intn(2))
			}
		}
		got := a.Append(b)
		if got.Shots != tc.aShots+tc.bShots {
			t.Fatalf("a=%d b=%d: shots = %d", tc.aShots, tc.bShots, got.Shots)
		}
		for c := 0; c < 2; c++ {
			for s := 0; s < tc.aShots; s++ {
				if got.Bit(c, s) != a.Bit(c, s) {
					t.Fatalf("a=%d b=%d: bit (%d,%d) lost from a", tc.aShots, tc.bShots, c, s)
				}
			}
			for s := 0; s < tc.bShots; s++ {
				if got.Bit(c, tc.aShots+s) != b.Bit(c, s) {
					t.Fatalf("a=%d b=%d: bit (%d,%d) of b misplaced", tc.aShots, tc.bShots, c, s)
				}
			}
		}
	}
}

// TestPackedBitsAppendDirtyTail: garbage beyond either operand's shot count
// must not leak into the concatenation.
func TestPackedBitsAppendDirtyTail(t *testing.T) {
	a, b := NewPackedBits(1, 5), NewPackedBits(1, 3)
	all := ^uint64(0)
	a.Planes[0][0] = all << 5 // dirty beyond shot 4
	b.Planes[0][0] = 0b101 | all<<3
	got := a.Append(b)
	if n := got.Ones(0); n != 2 {
		t.Errorf("Ones = %d, want 2 (dirty tails leaked)", n)
	}
	for s, want := range []int{0, 0, 0, 0, 0, 1, 0, 1} {
		if got.Bit(0, s) != want {
			t.Errorf("bit %d = %d, want %d", s, got.Bit(0, s), want)
		}
	}
}

func TestPackedBitsOnesParity(t *testing.T) {
	pb := NewPackedBits(2, 66)
	pb.Set(0, 0, 1)  // parity 1
	pb.Set(1, 0, 1)  // back to 0
	pb.Set(0, 65, 1) // parity 1
	pb.Set(1, 3, 1)  // parity 1
	if n := pb.OnesParity([]int{0, 1}); n != 2 {
		t.Errorf("OnesParity(0,1) = %d, want 2", n)
	}
	if n := pb.OnesParity([]int{0}); n != 2 {
		t.Errorf("OnesParity(0) = %d, want 2", n)
	}
	if n := pb.OnesParity(nil); n != 0 {
		t.Errorf("OnesParity() = %d, want 0", n)
	}
	// Out-of-range planes contribute nothing.
	if n := pb.OnesParity([]int{1, 7}); n != pb.Ones(1) {
		t.Errorf("OnesParity(1,7) = %d, want %d", n, pb.Ones(1))
	}
}

func TestPackedBitsCounts(t *testing.T) {
	pb := NewPackedBits(2, 65)
	// shot 0 -> "10", shot 64 -> "01", rest -> "00".
	pb.Set(0, 0, 1)
	pb.Set(1, 64, 1)
	res := pb.Counts()
	if res.Shots != 65 {
		t.Fatalf("shots = %d, want 65", res.Shots)
	}
	want := map[string]int{"10": 1, "01": 1, "00": 63}
	if len(res.Counts) != len(want) {
		t.Fatalf("counts = %v, want %v", res.Counts, want)
	}
	for k, n := range want {
		if res.Counts[k] != n {
			t.Errorf("counts[%q] = %d, want %d", k, res.Counts[k], n)
		}
	}
}
