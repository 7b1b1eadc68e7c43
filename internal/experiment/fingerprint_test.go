package experiment

import (
	"bytes"
	"hash/fnv"
	"runtime"
	"testing"
)

// experimentFingerprints pins the FNV-1a hash of the CSV every registered
// experiment writes at FastConfig. The values were recorded on linux/amd64,
// the CI platform; arm64 fuses x*y+z, so a last-digit difference there is
// expected and the test skips other architectures rather than pin them.
var experimentFingerprints = map[string]uint64{
	"ablation-placement":  0xc488462aee32f9f5,
	"ablation-scheduling": 0x943437ff46029829,
	"availability":        0x2cdcbe616e182e84,
	"cluster":             0x59b95692ac0b8a16,
	"control":             0xff5b28021b7343c6,
	"fig10":               0xdf727f8f61cbdefd,
	"fig11":               0x84bff2056ec24c49,
	"fig12":               0xca55e328f405709d,
	"fig13":               0x9629ce2869b082bd,
	"fig14":               0xc4e21d11943dcc82,
	"fig15":               0xa919047af2e22f24,
	"fig16":               0x338ebdf214c53f9e,
	"fig5":                0xaac4c934650849f5,
	"fig6":                0xa2ed19021cb00e01,
	"fig7":                0x784817ceb541faaa,
	"fig8":                0x16715d3572bf1d0a,
	"fig9":                0x2a00a9dcec6810f,
	"headline":            0x2095805826d191ab,
	"portfolio":           0x9b31a8dcb559236b,
	"robustness":          0x23d44dc8312489dc,
	"tail":                0x6e50222c3ed98216,
}

// TestExperimentFingerprints runs every registered experiment at FastConfig
// and compares the bytes of its CSV with the pinned hash, so a change that
// moves any figure cell fails in seconds rather than at the full-config
// figure regeneration.
func TestExperimentFingerprints(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("fingerprints are pinned on amd64, not %s", runtime.GOARCH)
	}
	ids := IDs()
	if len(ids) != len(experimentFingerprints) {
		t.Errorf("%d experiments registered, %d fingerprints pinned", len(ids), len(experimentFingerprints))
	}
	for _, id := range ids {
		tab, err := Run(id, FastConfig())
		if err != nil {
			t.Fatalf("Run(%s): %v", id, err)
		}
		var buf bytes.Buffer
		if err := tab.WriteCSV(&buf); err != nil {
			t.Fatalf("%s: WriteCSV: %v", id, err)
		}
		h := fnv.New64a()
		h.Write(buf.Bytes())
		if got, want := h.Sum64(), experimentFingerprints[id]; got != want {
			t.Errorf("%s: CSV fingerprint %#x, want %#x", id, got, want)
		}
	}
}
