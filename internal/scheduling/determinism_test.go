package scheduling

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"nfvchain/internal/model"
	"nfvchain/internal/rng"
)

// determinismItems builds a reproducible item set for the partition goldens.
func determinismItems(n int, seed uint64) []Item {
	s := rng.New(seed)
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{
			ID:     model.RequestID(fmt.Sprintf("r%04d", i)),
			Weight: s.Uniform(1, 100),
		}
	}
	return items
}

// fingerprintAssign hashes an assignment vector.
func fingerprintAssign(assign []int) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, a := range assign {
		binary.LittleEndian.PutUint64(buf[:], uint64(a))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// TestPartitionDeterminismGolden pins every KK-family partitioner's output to
// fingerprints captured before the merge-tree refactor. The refactor replaced
// per-merge set copying with immutable merge-tree nodes; assignments must stay
// byte-identical for fixed inputs.
func TestPartitionDeterminismGolden(t *testing.T) {
	cases := []struct {
		name string
		alg  Partitioner
		n, m int
		want uint64
	}{
		{"rckk-50-5", RCKK{}, 50, 5, 0x5329122fd1336e81},
		{"rckk-250-5", RCKK{}, 250, 5, 0x370c90b9f894081},
		{"rckk-1000-8", RCKK{}, 1000, 8, 0x9beaca947072eb87},
		{"ckk-40-4", CKK{MaxNodes: 20_000}, 40, 4, 0xbb4e9a4b5df294c5},
		{"kkforward-250-5", KKForward{}, 250, 5, 0x79b4da79586cdf65},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			items := determinismItems(tc.n, 7)
			assign, err := tc.alg.Partition(items, tc.m)
			if err != nil {
				t.Fatal(err)
			}
			if got := fingerprintAssign(assign); got != tc.want {
				t.Errorf("fingerprint = %#x, want %#x (partition determinism regression)", got, tc.want)
			}
		})
	}
}

// TestPartitionGoldenPrint regenerates the golden fingerprints (run with -v)
// after an intentional semantic change.
func TestPartitionGoldenPrint(t *testing.T) {
	for _, tc := range []struct {
		name string
		alg  Partitioner
		n, m int
	}{
		{"rckk-50-5", RCKK{}, 50, 5},
		{"rckk-250-5", RCKK{}, 250, 5},
		{"rckk-1000-8", RCKK{}, 1000, 8},
		{"ckk-40-4", CKK{MaxNodes: 20_000}, 40, 4},
		{"kkforward-250-5", KKForward{}, 250, 5},
	} {
		items := determinismItems(tc.n, 7)
		assign, err := tc.alg.Partition(items, tc.m)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: %#x (makespan=%.6f)", tc.name, fingerprintAssign(assign),
			Makespan(Loads(items, assign, tc.m)))
	}
}

// TestPartitionRepeatIdentical asserts two calls with the same inputs agree —
// shared merge arenas must not leak state between invocations.
func TestPartitionRepeatIdentical(t *testing.T) {
	items := determinismItems(300, 21)
	for _, alg := range []Partitioner{RCKK{}, KKForward{}, CKK{MaxNodes: 5000}} {
		a, err := alg.Partition(items, 6)
		if err != nil {
			t.Fatal(err)
		}
		b, err := alg.Partition(items, 6)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: assignment %d differs across runs: %d vs %d", alg.Name(), i, a[i], b[i])
			}
		}
	}
}
