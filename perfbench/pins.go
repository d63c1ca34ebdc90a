package main

import (
	"bufio"
	"embed"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// pinSeeds are the simulation seeds with pinned fingerprints: seed 1 is the
// one the benchmark was built against, seed 2 is held out to check a claim
// on inputs nobody tuned for.
var pinSeeds = []int64{1, 2}

//go:embed pins/*.txt
var pinFiles embed.FS

// pinSet maps "<seed> <workload> <point>" to the SHA-256 of the point's
// ResultFingerprint.
type pinSet map[string]string

func pinKey(seed int64, workload, point string) string {
	return fmt.Sprintf("%d %s %s", seed, workload, point)
}

func pinFile(seed int64) string { return fmt.Sprintf("seed%d.txt", seed) }

// loadPins parses the embedded pin files. Each line is
// "<workload> <point> <sha256>".
func loadPins() (pinSet, error) {
	pins := pinSet{}
	for _, seed := range pinSeeds {
		data, err := pinFiles.ReadFile("pins/" + pinFile(seed))
		if err != nil {
			return nil, fmt.Errorf("pins: %w", err)
		}
		sc := bufio.NewScanner(strings.NewReader(string(data)))
		for ln := 1; sc.Scan(); ln++ {
			f := strings.Fields(sc.Text())
			if len(f) == 0 {
				continue
			}
			if len(f) != 3 || len(f[2]) != 64 {
				return nil, fmt.Errorf("pins/%s:%d: want \"<workload> <point> <sha256>\"", pinFile(seed), ln)
			}
			pins[pinKey(seed, f[0], f[1])] = f[2]
		}
	}
	return pins, nil
}

// writePins writes one seed's pins under dir, sorted for stable diffs.
func writePins(dir string, seed int64, got map[string]string) error {
	lines := make([]string, 0, len(got))
	for k, sha := range got {
		lines = append(lines, k+" "+sha)
	}
	sort.Strings(lines)
	path := filepath.Join(dir, pinFile(seed))
	return os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644)
}

// tally counts attempted and failed operations. A failure is an error, an
// abort, a deadlock or a fingerprint that differs from its pin; it is never
// folded into a timing.
type tally struct {
	pins      pinSet
	seed      int64
	attempted int
	failed    int
	// firstDivergence names the first failing point, for the report.
	firstDivergence string
}

// check records one completed point whose fingerprint SHA is sha.
func (t *tally) check(workload, point, sha string) {
	t.attempted++
	want, ok := t.pins[pinKey(t.seed, workload, point)]
	switch {
	case !ok:
		t.fail(workload, point, fmt.Errorf("no pinned fingerprint"))
	case sha != want:
		t.fail(workload, point, fmt.Errorf("fingerprint %.12s, pinned %.12s", sha, want))
	}
}

// correct reports whether every attempted operation matched its pin.
func (t *tally) correct() bool { return t.failed == 0 && t.attempted > 0 }

// errored records one point that produced no result.
func (t *tally) errored(workload, point string, err error) {
	t.attempted++
	t.fail(workload, point, err)
}

func (t *tally) fail(workload, point string, err error) {
	t.failed++
	if t.firstDivergence == "" {
		t.firstDivergence = fmt.Sprintf("%s %s seed %d: %v", workload, point, t.seed, err)
		fmt.Fprintf(os.Stderr, "perfbench: first divergent point: %s\n", t.firstDivergence)
	}
}
