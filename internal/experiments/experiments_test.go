package experiments

import (
	"strings"
	"testing"
)

// tinyConfig is an even smaller configuration than QuickConfig so the full
// suite of figures regenerates in a few seconds of host time. Cache ~704
// KiB, files 256 KiB .. 2 MiB: the same cache-to-size ratios as the paper.
func tinyConfig() Config {
	var sizes []int64
	for kb := int64(256); kb <= 2048; kb += 256 {
		sizes = append(sizes, kb<<10)
	}
	return Config{
		PageSize:   4096,
		CachePages: 176, // 704 KiB
		Sizes:      sizes,
		Runs:       3,
		CDFRuns:    8,
		BufSize:    8 << 10,
		Seed:       20000923,
		JitterFrac: 0.02,
	}
}

// aboveCache returns the indices of sizes comfortably above cache (>= 2x).
func aboveCache(cfg Config) []int {
	var out []int
	for i, s := range cfg.Sizes {
		if s >= 2*cfg.CacheBytes() {
			out = append(out, i)
		}
	}
	return out
}

func TestConfigs(t *testing.T) {
	for _, cfg := range []Config{PaperConfig(), QuickConfig(), tinyConfig()} {
		cfg.validate()
		if cfg.CacheBytes() >= cfg.Sizes[len(cfg.Sizes)-1] {
			t.Fatalf("largest size does not exceed the cache: %+v", cfg)
		}
		if len(cfg.LHEASizes()) == 0 || len(cfg.LHEASizes()) > len(cfg.Sizes) {
			t.Fatalf("LHEASizes wrong")
		}
	}
	p := PaperConfig()
	if p.Sizes[0] != 8*MB || p.Sizes[len(p.Sizes)-1] != 128*MB || len(p.Sizes) != 16 {
		t.Fatalf("paper sweep wrong: %v", p.Sizes)
	}
	if p.Runs != 12 {
		t.Fatalf("paper runs = %d", p.Runs)
	}
}

func TestBootMachine(t *testing.T) {
	m, err := BootMachine(tinyConfig(), ProfileUnix)
	if err != nil {
		t.Fatal(err)
	}
	for _, fs := range []string{"ext2", "cdrom", "nfs", "tape"} {
		if _, err := deviceByName(m, fs); err != nil {
			t.Fatalf("deviceByName(%s): %v", fs, err)
		}
	}
	if _, err := deviceByName(m, "bogus"); err == nil {
		t.Fatalf("bogus fs accepted")
	}
	if _, err := BootMachine(tinyConfig(), Profile(9)); err == nil {
		t.Fatalf("bad profile accepted")
	}
}

func TestFig7And8Shape(t *testing.T) {
	cfg := tinyConfig()
	f7, f8, err := Fig7And8(cfg)
	if err != nil {
		t.Fatal(err)
	}
	with, without := f7.Series[0], f7.Series[1]
	if len(with.Points) != len(cfg.Sizes) || len(without.Points) != len(cfg.Sizes) {
		t.Fatalf("series lengths wrong")
	}

	// Below cache size the two modes are close (within 25%).
	if r := without.Points[0].Mean / with.Points[0].Mean; r < 0.75 || r > 1.35 {
		t.Errorf("small-file ratio %v, want near 1", r)
	}
	// Above cache size SLEDs wins at every point.
	idx := aboveCache(cfg)
	if len(idx) < 3 {
		t.Fatalf("too few above-cache sizes")
	}
	for _, i := range idx {
		if with.Points[i].Mean >= without.Points[i].Mean {
			t.Errorf("size %.3g MB: SLEDs %v not faster than %v",
				with.Points[i].X, with.Points[i].Mean, without.Points[i].Mean)
		}
	}
	// The absolute gap stays roughly constant well above cache size
	// (paper: "the difference in execution time remains about constant"):
	// compare the gap at the first and last above-cache points.
	first, last := idx[0], idx[len(idx)-1]
	gap1 := without.Points[first].Mean - with.Points[first].Mean
	gap2 := without.Points[last].Mean - with.Points[last].Mean
	if gap2 < 0.5*gap1 || gap2 > 2*gap1 {
		t.Errorf("gap not roughly constant: %v then %v", gap1, gap2)
	}

	// Figure 8: the speedup peaks just above the cache size and exceeds
	// 1.5 there (paper: 4.5x peak, >50% broad-range gain at full scale).
	ratios := f8.Series[0]
	var maxR float64
	var maxAt float64
	for _, p := range ratios.Points {
		if p.Mean > maxR {
			maxR, maxAt = p.Mean, p.X
		}
	}
	if maxR < 1.5 {
		t.Errorf("peak speedup %v < 1.5", maxR)
	}
	cacheMB := float64(cfg.CacheBytes()) / float64(MB)
	if maxAt < cacheMB || maxAt > 3*cacheMB {
		t.Errorf("speedup peak at %v MB, want within (1x,3x] of cache %v MB", maxAt, cacheMB)
	}
	if got := f7.Render(); !strings.Contains(got, "fig7") {
		t.Errorf("render missing id")
	}
}

func TestFig9Shape(t *testing.T) {
	cfg := tinyConfig()
	f9, err := Fig9(cfg)
	if err != nil {
		t.Fatal(err)
	}
	with, without := f9.Series[0], f9.Series[1]
	// Below cache: both modes fault ~0 on the warm cache.
	if without.Points[0].Mean > 5 || with.Points[0].Mean > 5 {
		t.Errorf("small warm file faults: %v / %v", with.Points[0].Mean, without.Points[0].Mean)
	}
	for _, i := range aboveCache(cfg) {
		// Without SLEDs every page faults; with SLEDs the cached tail is
		// reused, so faults drop by roughly the cache size in pages.
		pages := float64(cfg.Sizes[i] / int64(cfg.PageSize))
		if without.Points[i].Mean < 0.95*pages {
			t.Errorf("size %v: without-SLEDs faults %v, want ~%v", with.Points[i].X, without.Points[i].Mean, pages)
		}
		if with.Points[i].Mean > 0.8*without.Points[i].Mean {
			t.Errorf("size %v: SLEDs faults %v not well below %v", with.Points[i].X, with.Points[i].Mean, without.Points[i].Mean)
		}
	}
}

func TestFig10Shape(t *testing.T) {
	cfg := tinyConfig()
	f10, err := Fig10(cfg)
	if err != nil {
		t.Fatal(err)
	}
	with, without := f10.Series[0], f10.Series[1]
	last := len(cfg.Sizes) - 1
	// Large files: SLEDs save roughly the CD-ROM cache-fill time.
	if with.Points[last].Mean >= without.Points[last].Mean {
		t.Errorf("large-file grep with SLEDs (%v) not faster than without (%v)",
			with.Points[last].Mean, without.Points[last].Mean)
	}
	// Small cached files: SLEDs cost a little extra CPU (paper: "a small
	// amount of overhead for small files").
	if with.Points[0].Mean < without.Points[0].Mean {
		t.Errorf("small-file overhead missing: with %v < without %v",
			with.Points[0].Mean, without.Points[0].Mean)
	}
}

func TestFig11And12Shape(t *testing.T) {
	cfg := tinyConfig()
	cfg.Runs = 6 // more runs: the -q experiment is inherently noisy
	f11, f12, err := Fig11And12(cfg)
	if err != nil {
		t.Fatal(err)
	}
	with, without := f11.Series[0], f11.Series[1]
	// At the largest size the SLEDs mean beats the non-SLEDs mean.
	last := len(cfg.Sizes) - 1
	if with.Points[last].Mean >= without.Points[last].Mean {
		t.Errorf("grep -q with SLEDs (%v) not faster than without (%v) at %v MB",
			with.Points[last].Mean, without.Points[last].Mean, with.Points[last].X)
	}
	// Somewhere in the sweep the speedup is substantial (paper: up to
	// ~25x at full scale; demand >2x at tiny scale).
	var maxR float64
	for _, p := range f12.Series[0].Points {
		if p.Mean > maxR {
			maxR = p.Mean
		}
	}
	if maxR < 2 {
		t.Errorf("max grep -q speedup %v < 2", maxR)
	}
}

func TestFig13Shape(t *testing.T) {
	cfg := tinyConfig()
	f13, err := Fig13(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(f13.Series) != 2 {
		t.Fatalf("want 2 CDF series")
	}
	with, without := f13.Series[0], f13.Series[1]
	if len(with.Points) != cfg.CDFRuns || len(without.Points) != cfg.CDFRuns {
		t.Fatalf("CDF run counts wrong: %d/%d", len(with.Points), len(without.Points))
	}
	// Quantile curves are monotonically nondecreasing.
	for _, s := range f13.Series {
		for i := 1; i < len(s.Points); i++ {
			if s.Points[i].X < s.Points[i-1].X || s.Points[i].Mean < s.Points[i-1].Mean {
				t.Fatalf("CDF %s not monotonic", s.Name)
			}
		}
	}
	// The SLEDs median is no worse than the non-SLEDs median.
	mid := cfg.CDFRuns / 2
	if with.Points[mid].Mean > without.Points[mid].Mean {
		t.Errorf("SLEDs median %v slower than non-SLEDs %v", with.Points[mid].Mean, without.Points[mid].Mean)
	}
}

func TestFig14Shape(t *testing.T) {
	cfg := tinyConfig()
	f14, err := Fig14(cfg)
	if err != nil {
		t.Fatal(err)
	}
	with, without := f14.Series[0], f14.Series[1]
	last := len(with.Points) - 1
	reduction := 1 - with.Points[last].Mean/without.Points[last].Mean
	// Paper: 15-25% elapsed-time reduction for files over the cache size.
	// Accept a broad band at tiny scale, but demand a real reduction that
	// stays below wc/grep's (the complexity attenuation).
	if reduction < 0.05 || reduction > 0.6 {
		t.Errorf("fimhisto reduction %.0f%% outside [5%%,60%%]", reduction*100)
	}
}

func TestFig15ShapeAndFactorOrdering(t *testing.T) {
	cfg := tinyConfig()
	f4, err := Fig15Factor(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	f16, err := Fig15Factor(cfg, 16)
	if err != nil {
		t.Fatal(err)
	}
	red := func(f Figure) float64 {
		with, without := f.Series[0], f.Series[1]
		last := len(with.Points) - 1
		return 1 - with.Points[last].Mean/without.Points[last].Mean
	}
	r4, r16 := red(f4), red(f16)
	if r4 <= 0 {
		t.Errorf("fimgbin 4x shows no gain: %.0f%%", r4*100)
	}
	if r16 <= r4 {
		t.Errorf("16x reduction (%.0f%%) not larger than 4x (%.0f%%): write traffic should matter", r16*100, r4*100)
	}
}

func TestTables2And3(t *testing.T) {
	cfg := tinyConfig()
	t2, err := Table2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(t2.Rows) != 4 {
		t.Fatalf("table2 rows: %d", len(t2.Rows))
	}
	// Paper values: 175ns/48, 18ms/9.0, 130ms/2.8, 270ms/1.0.
	wantLat := []float64{175e-9, 18e-3, 130e-3, 270e-3}
	wantBW := []float64{48, 9, 2.8, 1.0}
	for i, r := range t2.Rows {
		if r.Latency < 0.6*wantLat[i] || r.Latency > 1.4*wantLat[i] {
			t.Errorf("table2 %s latency %v, want ~%v", r.Level, r.Latency, wantLat[i])
		}
		bwMB := r.Bandwidth / float64(MB)
		if bwMB < 0.8*wantBW[i] || bwMB > 1.3*wantBW[i] {
			t.Errorf("table2 %s bandwidth %.2f MB/s, want ~%v", r.Level, bwMB, wantBW[i])
		}
	}
	if !strings.Contains(t2.Render(), "hard disk") {
		t.Errorf("table2 render missing rows")
	}

	t3, err := Table3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(t3.Rows) != 2 {
		t.Fatalf("table3 rows: %d", len(t3.Rows))
	}
	// Table 3: memory 210ns/87, disk 16.5ms/7.0.
	if bw := t3.Rows[0].Bandwidth / float64(MB); bw < 70 || bw > 100 {
		t.Errorf("table3 memory bandwidth %.1f", bw)
	}
	if bw := t3.Rows[1].Bandwidth / float64(MB); bw < 5.6 || bw > 8.4 {
		t.Errorf("table3 disk bandwidth %.1f", bw)
	}
}

func TestTable4(t *testing.T) {
	t4, err := Table4()
	if err != nil {
		t.Fatal(err)
	}
	if len(t4.Rows) != 5 {
		t.Fatalf("table4 rows: %d", len(t4.Rows))
	}
	for _, r := range t4.Rows {
		if r.Total <= 0 || r.SLEDs <= 0 || r.SLEDs >= r.Total {
			t.Errorf("table4 row %+v implausible", r)
		}
	}
	// grep needed the most extensive SLEDs changes, as in the paper.
	bySLEDs := map[string]int{}
	for _, r := range t4.Rows {
		bySLEDs[r.App] = r.SLEDs
	}
	for app, n := range bySLEDs {
		if app != "grepapp" && n > bySLEDs["grepapp"] {
			t.Errorf("%s has more SLEDs lines (%d) than grepapp (%d)", app, n, bySLEDs["grepapp"])
		}
	}
	if !strings.Contains(t4.Render(), "grepapp") {
		t.Errorf("table4 render missing grepapp")
	}
}

func TestFig3Trace(t *testing.T) {
	out := Fig3Trace()
	for _, want := range []string{
		"5 of 5 blocks fetched (no reuse",
		"2 of 5 blocks fetched (cached tail read first)",
		"[ 5 4 3 ]",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("Fig3 trace missing %q:\n%s", want, out)
		}
	}
}

func TestEFind(t *testing.T) {
	r, err := EFind(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Cheap) != 1 || r.Cheap[0].Path != "/data/src/hot.c" {
		t.Fatalf("cheap set = %v, want only hot.c", r.Cheap)
	}
	if len(r.Expensive) != 4 {
		t.Fatalf("expensive set = %v, want 4 files", r.Expensive)
	}
	var tapeSeen int
	for _, f := range r.Expensive {
		if strings.HasPrefix(f.Path, "/data/archive/") {
			tapeSeen++
			if f.Seconds < 10 {
				t.Errorf("tape file %s estimated at %v s, want tens of seconds", f.Path, f.Seconds)
			}
		}
	}
	if tapeSeen != 2 {
		t.Fatalf("tape files in expensive set: %d", tapeSeen)
	}
}

func TestEGmc(t *testing.T) {
	cfg := tinyConfig()
	r, err := EGmc(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := BootMachine(cfg, ProfileUnix)
	if err != nil {
		t.Fatal(err)
	}
	memE, _ := m.Table.Memory()
	frac := r.CachedFraction(memE.Latency)
	if frac < 0.3 || frac > 0.7 {
		t.Errorf("cached fraction %v, want ~0.5", frac)
	}
	if !strings.Contains(r.Render(), "estimated total delivery time") {
		t.Errorf("panel render incomplete")
	}
}

func TestAblationPolicy(t *testing.T) {
	f, err := AblationPolicy(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	pts := f.Series[0].Points
	if len(pts) != 3 {
		t.Fatalf("want 3 policies, got %d", len(pts))
	}
	// SLEDs must help under every policy for pure linear rescans (all
	// three evict the head before the tail on a linear overrun).
	for _, p := range pts {
		if p.Mean < 1.2 {
			t.Errorf("policy %v speedup %v < 1.2", p.X, p.Mean)
		}
	}
}

func TestAblationPickOrder(t *testing.T) {
	f, err := AblationPickOrder(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	times := f.Series[0].Points
	faults := f.Series[1].Points
	// latency-first <= file order, and reverse order is never better
	// than latency-first.
	if times[0].Mean >= times[1].Mean {
		t.Errorf("latency order (%v) not faster than linear (%v)", times[0].Mean, times[1].Mean)
	}
	if times[2].Mean <= times[0].Mean {
		t.Errorf("pessimal order (%v) not slower than latency order (%v)", times[2].Mean, times[0].Mean)
	}
	if faults[0].Mean >= faults[1].Mean {
		t.Errorf("latency order faults (%v) not below linear (%v)", faults[0].Mean, faults[1].Mean)
	}
}

func TestAblationRefresh(t *testing.T) {
	f, err := AblationRefresh(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	stale := f.Series[0].Points[0].Mean
	fresh := f.Series[0].Points[1].Mean
	// Refreshing must never be slower; in this scenario both schedules
	// face a cold cache after the intruder, so the gain is modest but
	// the refreshed one must not lose.
	if fresh > stale*1.02 {
		t.Errorf("refreshed schedule (%v) slower than stale (%v)", fresh, stale)
	}
}

func TestAblationReadahead(t *testing.T) {
	f, err := AblationReadahead(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	pts := f.Series[0].Points
	if len(pts) != 2 {
		t.Fatalf("want 2 readahead settings")
	}
	// SLEDs still help with readahead on; the gain may shrink.
	for _, p := range pts {
		if p.Mean < 1.1 {
			t.Errorf("readahead %v: speedup %v < 1.1", p.X, p.Mean)
		}
	}
}

func TestEHSM(t *testing.T) {
	r, err := EHSM(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	// The paper predicts much larger gains on HSM than on disk: the
	// non-SLEDs run must mount and read tape (tens of virtual seconds),
	// the SLEDs run stays on RAM/disk.
	if r.Speedup < 10 {
		t.Errorf("HSM speedup %v, want >= 10", r.Speedup)
	}
	if r.WithoutSeconds < 10 {
		t.Errorf("non-SLEDs HSM grep took %v s; expected tape mount costs", r.WithoutSeconds)
	}
}
