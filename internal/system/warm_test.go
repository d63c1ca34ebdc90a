package system

import (
	"context"
	"reflect"
	"testing"

	"scalablebulk/internal/workload"
)

// TestBuildFromWarmImage: a machine restored from another protocol's warm
// image runs exactly like one that warmed up itself, on an application
// model and an adversarial source at both figure machine sizes.
func TestBuildFromWarmImage(t *testing.T) {
	for _, tc := range []struct {
		app, workload string
		cores         int
	}{
		{"Ocean", "", 64},
		{"Radix", "", 32},
		{"zipf", "zipf", 64},
	} {
		prof, ok := workload.ByName(tc.app)
		if !ok {
			prof, _ = workload.SourceProfile(tc.app)
		}
		cfg := DefaultConfig(tc.cores, ProtoTCC)
		cfg.Workload = tc.workload
		cfg.ChunksPerCore = 2
		m, err := Build(prof, cfg)
		if err != nil {
			t.Fatal(err)
		}
		img := m.WarmImage()
		if img == nil {
			t.Fatalf("%s-%d: warm-up state does not encode", tc.app, tc.cores)
		}
		if m.Restored() {
			t.Errorf("%s-%d: a machine that warmed up reports a restore", tc.app, tc.cores)
		}
		for _, proto := range Protocols {
			cfg.Protocol = proto
			want, err := Run(prof, cfg)
			if err != nil {
				t.Fatal(err)
			}
			m, err := BuildFrom(prof, cfg, img)
			if err != nil {
				t.Fatal(err)
			}
			if !m.Restored() {
				t.Errorf("%s-%d/%s: BuildFrom does not report its restore", tc.app, tc.cores, proto)
			}
			got, err := m.RunContext(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s-%d/%s: restored machine's result differs", tc.app, tc.cores, proto)
			}
		}
		other := cfg
		other.Seed++
		if _, err := BuildFrom(prof, other, img); err == nil {
			t.Errorf("%s-%d: image restored into a machine with another seed", tc.app, tc.cores)
		}
	}
}

// TestWarmImageEveryApp: every application's warm-up state at the figure
// machine sizes fits the compact encoding, so no sweep group falls back to
// warming up each point.
func TestWarmImageEveryApp(t *testing.T) {
	if testing.Short() {
		t.Skip("builds 36 machines")
	}
	for _, prof := range workload.All() {
		for _, cores := range []int{32, 64} {
			m, err := Build(prof, DefaultConfig(cores, ProtoScalableBulk))
			if err != nil {
				t.Fatal(err)
			}
			if m.WarmImage() == nil {
				t.Errorf("%s-%d: warm-up state does not encode", prof.Name, cores)
			}
		}
	}
}

// TestWarmImageDeterministic: two builds of one 64-core point, and a machine
// restored from the first one's image, encode to equal images, so the image
// of a machine does not depend on hash-table iteration order.
func TestWarmImageDeterministic(t *testing.T) {
	prof, _ := workload.ByName("Ocean")
	cfg := DefaultConfig(64, ProtoScalableBulk)
	var imgs []*WarmImage
	for i := 0; i < 2; i++ {
		m, err := Build(prof, cfg)
		if err != nil {
			t.Fatal(err)
		}
		imgs = append(imgs, m.WarmImage())
	}
	m, err := BuildFrom(prof, cfg, imgs[0])
	if err != nil {
		t.Fatal(err)
	}
	imgs = append(imgs, m.WarmImage())
	if imgs[0] == nil {
		t.Fatal("warm-up state does not encode")
	}
	if !reflect.DeepEqual(imgs[0], imgs[1]) {
		t.Error("two builds of one machine give different warm images")
	}
	if !reflect.DeepEqual(imgs[0], imgs[2]) {
		t.Error("a restored machine's warm image differs from the one it was restored from")
	}
}
