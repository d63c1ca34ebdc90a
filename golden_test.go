package scalablebulk

// Golden fingerprint pinning: any refactor of the protocol wiring or the
// commit-engine kernel must be behavior-preserving, bit for bit. The
// fingerprints under testdata/goldens were generated from the original
// switch-based wiring; every paper protocol plus the OCI-off ablation must
// keep reproducing them exactly at 16 and 64 cores.
//
// Regenerate (only when a change is *intended* to move results) with:
//
//	go test -run TestGoldenFingerprints -update .

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var updateGoldens = flag.Bool("update", false, "rewrite the golden fingerprint files")

// goldenPoints is the pinned matrix: every paper protocol plus the OCI-off
// variant, at 16 and 64 cores.
func goldenPoints() []string {
	return append(append([]string(nil), Protocols...), ProtoNoOCI)
}

func goldenPath(protocol string, cores int) string {
	return filepath.Join("testdata", "goldens", fmt.Sprintf("%s-%d.txt", protocol, cores))
}

// TestGoldenFingerprints compares every protocol × {16,64} fingerprint
// against its pinned pre-refactor value.
func TestGoldenFingerprints(t *testing.T) {
	goldenMatrix(t, "Barnes", func(protocol string, cores int) string {
		return goldenPath(protocol, cores)
	})
}

// TestGoldenZipfFingerprints pins the zipf adversarial workload the same way:
// every protocol × {16,64} under the hot-line conflict storm must keep
// reproducing its recorded fingerprint bit for bit, so neither the workload
// table nor the generator family can drift silently.
func TestGoldenZipfFingerprints(t *testing.T) {
	goldenMatrix(t, "zipf", func(protocol string, cores int) string {
		return filepath.Join("testdata", "goldens", fmt.Sprintf("zipf-%s-%d.txt", protocol, cores))
	})
}

func goldenMatrix(t *testing.T, app string, path func(protocol string, cores int) string) {
	const seed = 7
	for _, protocol := range goldenPoints() {
		for _, cores := range []int{16, 64} {
			protocol, cores := protocol, cores
			t.Run(fmt.Sprintf("%s/%d", protocol, cores), func(t *testing.T) {
				got := serialFingerprint(t, app, protocol, cores, seed)
				p := path(protocol, cores)
				if *updateGoldens {
					if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(p, []byte(got), 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(p)
				if err != nil {
					t.Fatalf("missing golden (run with -update to create): %v", err)
				}
				if got != string(want) {
					t.Errorf("fingerprint drifted from pinned golden %s:\n--- want\n%s--- got\n%s",
						p, want, got)
				}
			})
		}
	}
}
