package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"testing"
)

// hashWriter lets Output.WriteCSVs write every file into one hash.
type hashWriter struct{ io.Writer }

func (hashWriter) Close() error { return nil }

// figureDigest runs the given rows of Figures and hashes what ccrepro
// writes for them — each summary, then every CSV file name and body —
// so a digest mismatch means user-visible bytes changed.
func figureDigest(t *testing.T, o Options, ids ...string) string {
	t.Helper()
	h := sha256.New()
	for _, id := range ids {
		fig, ok := LookupFigure(id)
		if !ok {
			t.Fatalf("no figure %q", id)
		}
		out := fig.Run(o)
		fmt.Fprintln(h, out.Summary)
		err := out.WriteCSVs(func(file string) (io.WriteCloser, error) {
			fmt.Fprintln(h, file)
			return hashWriter{h}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// reproDigest regenerates a representative figure subset — every
// experiment with internal fan-out that is fast enough for a unit
// test — at the given worker count.
func reproDigest(t *testing.T, workers int) string {
	o := Options{Seed: 1, TimeScale: 100, MessageBits: 16, Messages: 3, Workers: workers}
	return figureDigest(t, o, "4", "6", "12", "13", "e")
}

// slowDigest covers the two heaviest fan-outs, compared across fewer
// worker counts to bound test time.
func slowDigest(t *testing.T, workers int) string {
	o := Options{Seed: 1, TimeScale: 100, MessageBits: 16, Workers: workers}
	return figureDigest(t, o, "10", "r")
}

// TestDeterminismAcrossWorkers is the determinism gate: the parallel
// path must emit byte-identical summaries and CSVs at every worker
// count. ccrepro -j N is the same code path, so this also covers the
// CLI (CI additionally diffs full ccrepro -j 1 vs -j 8 output trees).
func TestDeterminismAcrossWorkers(t *testing.T) {
	serial := reproDigest(t, 1)
	for _, workers := range []int{4, 0} {
		if got := reproDigest(t, workers); got != serial {
			t.Fatalf("workers=%d digest %s != serial digest %s: scheduling leaked into results",
				workers, got, serial)
		}
	}
	if testing.Short() {
		return
	}
	slowSerial := slowDigest(t, 1)
	if got := slowDigest(t, 4); got != slowSerial {
		t.Fatalf("slow figures: workers=4 digest %s != serial %s", got, slowSerial)
	}
}
