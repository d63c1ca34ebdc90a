package system

import (
	"fmt"
	"testing"

	"scalablebulk/internal/workload"
)

// BenchmarkBuild measures machine construction — caches, directories and
// the warm-up chunk stream — for a 64-core zipf and a 64-core Ocean
// machine, the setup every sweep point pays before its first event. Each
// /restore case builds the same machine from a warm image instead, as a
// sweep's points after the first of their group do.
func BenchmarkBuild(b *testing.B) {
	for _, bc := range []struct{ name, app, workload string }{
		{"zipf-64", "zipf", "zipf"},
		{"Ocean-64", "Ocean", ""},
	} {
		prof, ok := workload.ByName(bc.app)
		if !ok {
			prof, _ = workload.SourceProfile(bc.app)
		}
		cfg := DefaultConfig(64, "ScalableBulk")
		cfg.Workload = bc.workload
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Build(prof, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(bc.name+"/restore", func(b *testing.B) {
			m, err := Build(prof, cfg)
			if err != nil {
				b.Fatal(err)
			}
			img := m.WarmImage()
			if img == nil {
				b.Fatal("warm-up state does not encode")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := BuildFrom(prof, cfg, img); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRunCommitBound measures whole commit-bound runs — zipf on every
// signature-era protocol at 64 cores and the 256-core convoy — where the
// protocol engines, the commit messages and chunk finalization do the work.
func BenchmarkRunCommitBound(b *testing.B) {
	type point struct {
		src, proto   string
		cores, chunk int
	}
	var points []point
	for _, proto := range []string{"ScalableBulk", "TCC", "SEQ", "BulkSC"} {
		points = append(points, point{"zipf", proto, 64, 8})
	}
	points = append(points, point{"convoy", "ScalableBulk", 256, 4})
	for _, pt := range points {
		prof, _ := workload.SourceProfile(pt.src)
		cfg := DefaultConfig(pt.cores, pt.proto)
		cfg.Workload = pt.src
		cfg.ChunksPerCore = pt.chunk
		cfg.Seed = 1
		b.Run(fmt.Sprintf("%s/%s/%d/%d", pt.src, pt.proto, pt.cores, pt.chunk), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Run(prof, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
