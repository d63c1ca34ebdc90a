package system

import (
	"testing"

	"scalablebulk/internal/workload"
)

// BenchmarkBuild measures machine construction — caches, directories and
// the warm-up chunk stream — for a 64-core zipf and a 64-core Ocean
// machine, the setup every sweep point pays before its first event.
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
	}
}
