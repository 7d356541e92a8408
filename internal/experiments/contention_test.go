package experiments

import "testing"

func TestEContentionSLEDsBeatObliviousUnderContention(t *testing.T) {
	cfg := tinyConfig()
	f, err := EContention(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Series) != 2*len(contentionSchedulers) {
		t.Fatalf("got %d series, want %d", len(f.Series), 2*len(contentionSchedulers))
	}
	for _, s := range f.Series {
		if len(s.Points) != len(contentionStreams) {
			t.Fatalf("series %q has %d points, want %d", s.Name, len(s.Points), len(contentionStreams))
		}
		for i, p := range s.Points {
			if p.X != float64(contentionStreams[i]) {
				t.Fatalf("series %q point %d at x=%v, want %d", s.Name, i, p.X, contentionStreams[i])
			}
			if p.Mean <= 0 {
				t.Fatalf("series %q point %d non-positive: %v", s.Name, i, p.Mean)
			}
		}
	}
	// The acceptance bar: from 4 competing streams up, SLED-guided access
	// ordering beats the oblivious front-to-back order on total virtual
	// completion time, under every scheduling policy.
	for si, sched := range contentionSchedulers {
		with, without := f.Series[2*si], f.Series[2*si+1]
		for i, n := range contentionStreams {
			if n < 4 {
				continue
			}
			w, wo := with.Points[i].Mean, without.Points[i].Mean
			if w >= wo {
				t.Errorf("%s at %d streams: with SLEDs %.4g s >= without %.4g s", sched, n, w, wo)
			}
		}
	}
}

func TestEContentionSchedulerDependent(t *testing.T) {
	cfg := tinyConfig()
	f, err := EContention(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Completion times must depend on the scheduling policy: at the
	// highest contention, the per-scheduler columns may not all agree.
	last := len(contentionStreams) - 1
	mode := func(col int) float64 { return f.Series[col].Points[last].Mean }
	same := true
	for si := 1; si < len(contentionSchedulers); si++ {
		if mode(2*si) != mode(0) || mode(2*si+1) != mode(1) {
			same = false
		}
	}
	if same {
		t.Fatalf("all schedulers produced identical completion times at %d streams", contentionStreams[last])
	}
}

func TestELoadSLEDTracksQueueDepth(t *testing.T) {
	cfg := tinyConfig()
	f, err := ELoadSLED(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Series) != 3 {
		t.Fatalf("got %d series, want 3", len(f.Series))
	}
	est, unl, dep := f.Series[0], f.Series[1], f.Series[2]
	if len(est.Points) == 0 {
		t.Fatal("no points")
	}
	// The unloaded entry is flat; the estimate equals it when the disk is
	// idle and exceeds it strictly once a queue has formed, growing with
	// the depth the probe observed.
	base := unl.Points[0].Mean
	for i, p := range unl.Points {
		if p.Mean != base {
			t.Fatalf("unloaded entry not flat at point %d: %v vs %v", i, p.Mean, base)
		}
	}
	if est.Points[0].Mean != base {
		t.Fatalf("idle estimate %v != unloaded entry %v", est.Points[0].Mean, base)
	}
	lastDepth, lastEst := -1.0, 0.0
	for i, p := range est.Points {
		d := dep.Points[i].Mean
		if d > 0 && p.Mean <= base {
			t.Fatalf("point %d: depth %v but estimate %v not above base %v", i, d, p.Mean, base)
		}
		if d > lastDepth && i > 0 && p.Mean <= lastEst {
			t.Fatalf("point %d: depth grew %v->%v but estimate fell %v->%v", i, lastDepth, d, lastEst, p.Mean)
		}
		lastDepth, lastEst = d, p.Mean
	}
	// Highest load must report a saturated queue: n-1 waiting requests.
	if want := float64(8 - 1); dep.Points[len(dep.Points)-1].Mean != want {
		t.Fatalf("depth at 8 streams = %v, want %v", dep.Points[len(dep.Points)-1].Mean, want)
	}
}
