package scheduling

import (
	"fmt"
	"hash/fnv"
	"testing"

	"nfvchain/internal/model"
	"nfvchain/internal/rng"
)

func TestCompatProbe(t *testing.T) {
	h := fnv.New64a()
	for _, n := range []int{1, 2, 7, 50, 313} {
		for _, m := range []int{1, 2, 3, 5} {
			st := rng.Derive(uint64(n*1000+m), "probe")
			items := make([]Item, n)
			for i := range items {
				items[i] = Item{ID: model.RequestID(fmt.Sprintf("r%d", i)), Weight: float64(1+st.IntN(1000)) / 7.0}
			}
			for _, p := range []Partitioner{RCKK{}, CKK{}, KKForward{}} {
				assign, err := p.Partition(items, m)
				if err != nil {
					t.Fatal(err)
				}
				for _, a := range assign {
					fmt.Fprintf(h, "%s/%d/%d;", p.Name(), m, a)
				}
			}
		}
	}
	t.Logf("PROBE-HASH %#x", h.Sum64())
}
