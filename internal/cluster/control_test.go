package cluster

import (
	"testing"

	"profitlb/internal/dispatch"
)

// controlWire builds a controller correction against the current
// publication: the published table re-scaled by mult with the next
// sub-epoch.
func controlWire(t *testing.T, pub *Publication, mult float64, dcfg dispatch.Config) *dispatch.TableWire {
	t.Helper()
	full, err := dispatch.FromWire(pub.Table)
	if err != nil {
		t.Fatal(err)
	}
	m := make([]float64, len(full.Lanes))
	for i := range m {
		m[i] = mult
	}
	re, err := full.Rescale(m, pub.Sub+1, dcfg)
	if err != nil {
		t.Fatal(err)
	}
	return re.Wire()
}

// TestPublishControlGuards: a controller correction only lands when the
// control plane is up, something was already published, the correction
// targets the current epoch, and its sub-epoch strictly advances — and
// it is always pinned to the exact membership its epoch was spread over,
// even when membership has changed since.
func TestPublishControlGuards(t *testing.T) {
	sys := testSystem()
	dcfg := dispatch.Config{Seed: 41, SlotSeconds: 60}
	drv := testDriver(sys, dcfg, nil)
	ccfg := testClusterConfig(0)
	p := NewPublisher(ccfg, drv, nil)

	// Nothing published yet: any control publish is refused.
	if got := p.PublishControl(&dispatch.TableWire{}, 0); got != nil {
		t.Fatal("control publish landed before any slot publish")
	}

	p.Beat("r0", 0)
	p.Beat("r1", 0)
	pub, err := p.PublishSlot(0)
	if err != nil {
		t.Fatal(err)
	}

	if got := p.PublishControl(nil, 0); got != nil {
		t.Fatal("nil control wire accepted")
	}

	// Sub must strictly advance: a re-send of the committed sub is refused.
	same := controlWire(t, pub, 1, dcfg)
	same.Sub = pub.Sub
	if got := p.PublishControl(same, 0); got != nil {
		t.Fatal("control publish with a non-advancing sub accepted")
	}

	// Wrong epoch: a correction computed against a superseded plan loses.
	stale := controlWire(t, pub, 1.1, dcfg)
	stale.Epoch = pub.Epoch + 1
	if got := p.PublishControl(stale, 0); got != nil {
		t.Fatal("control publish against a foreign epoch accepted")
	}

	// A member joining mid-slot must not move the correction's membership:
	// the replicas' subdivision indices are pinned for the epoch.
	p.Beat("r2", 0)
	cp := p.PublishControl(controlWire(t, pub, 1.1, dcfg), 0)
	if cp == nil {
		t.Fatal("valid control publish refused")
	}
	if cp.Epoch != pub.Epoch || cp.Sub != pub.Sub+1 {
		t.Fatalf("control publication pair (%d,%d), want (%d,%d)", cp.Epoch, cp.Sub, pub.Epoch, pub.Sub+1)
	}
	if len(cp.Members) != len(pub.Members) {
		t.Fatalf("control publication re-spread membership: %v vs %v", cp.Members, pub.Members)
	}
	for i := range cp.Members {
		if cp.Members[i] != pub.Members[i] {
			t.Fatalf("control membership %v diverged from epoch membership %v", cp.Members, pub.Members)
		}
	}

	// The joiner still forces a re-spread at the next slot publish.
	pub2, err := p.PublishSlot(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(pub2.Members) != 3 {
		t.Fatalf("next slot publish members %v, want the joined trio", pub2.Members)
	}

	// Once a newer sub is current, older subs are refused.
	cpOld := controlWire(t, pub, 1.2, dcfg)
	if got := p.PublishControl(cpOld, 1); got != nil {
		t.Fatal("control publish against a superseded epoch accepted after re-plan")
	}

	// Down control plane refuses corrections outright.
	p.SetDown(true)
	if got := p.PublishControl(controlWire(t, pub2, 1.1, dcfg), 1); got != nil {
		t.Fatal("down control plane accepted a control publish")
	}
}

// TestReplicaSubEpochFence: replicas order deliveries by the full
// (epoch, sub) pair — corrections advance within the epoch, duplicates
// and regressions are fenced without touching serving state, and the
// next slot epoch resets the sub sequence.
func TestReplicaSubEpochFence(t *testing.T) {
	sys := testSystem()
	dcfg := dispatch.Config{Seed: 43, SlotSeconds: 60}
	drv := testDriver(sys, dcfg, nil)
	ccfg := testClusterConfig(0)
	p := NewPublisher(ccfg, drv, nil)
	r := NewReplica("r0", sys, dcfg, ccfg, nil)

	p.Beat("r0", 0)
	pub, err := p.PublishSlot(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Apply(pub, 0); err != nil {
		t.Fatal(err)
	}
	if r.Sub() != 0 {
		t.Fatalf("fresh slot sub %d, want 0", r.Sub())
	}
	baseRate := r.Gateway().Table().Lanes[0].Rate

	cp1 := p.PublishControl(controlWire(t, pub, 1.5, dcfg), 0)
	if cp1 == nil {
		t.Fatal("control publish refused")
	}
	installed, err := r.Apply(cp1, 10)
	if err != nil || !installed {
		t.Fatalf("control apply: %v %v", installed, err)
	}
	if r.Epoch() != pub.Epoch || r.Sub() != 1 {
		t.Fatalf("after correction: pair (%d,%d), want (%d,1)", r.Epoch(), r.Sub(), pub.Epoch)
	}
	boosted := r.Gateway().Table().Lanes[0].Rate
	if boosted == baseRate {
		t.Fatal("correction did not change the serving table")
	}

	// Duplicate correction: fenced, serving untouched.
	if installed, err := r.Apply(cp1, 11); err != nil || installed {
		t.Fatalf("duplicate correction apply: %v %v", installed, err)
	}
	// Regressed sub (the committed plan re-delivered): fenced as stale.
	if installed, err := r.Apply(pub, 12); err != nil || installed {
		t.Fatalf("regressed sub apply: %v %v", installed, err)
	}
	if stale, dup := r.Gateway().Fenced(); stale != 1 || dup != 1 {
		t.Fatalf("fence counters (%d,%d), want (1,1)", stale, dup)
	}
	if got := r.Gateway().Table().Lanes[0].Rate; got != boosted {
		t.Fatalf("fenced deliveries moved the serving rate %g → %g", boosted, got)
	}

	// The next slot epoch supersedes any sub within the old epoch.
	pub2, err := p.PublishSlot(1)
	if err != nil {
		t.Fatal(err)
	}
	if installed, err := r.Apply(pub2, 60); err != nil || !installed {
		t.Fatalf("next epoch apply: %v %v", installed, err)
	}
	if r.Epoch() != pub2.Epoch || r.Sub() != 0 {
		t.Fatalf("new epoch pair (%d,%d), want (%d,0)", r.Epoch(), r.Sub(), pub2.Epoch)
	}
	// A late correction from the dead epoch is fenced.
	if installed, err := r.Apply(cp1, 61); err != nil || installed {
		t.Fatalf("dead-epoch correction apply: %v %v", installed, err)
	}
}

// TestPartitionedReplicaKeepsFencedSub: a replica cut off mid-slot keeps
// serving the last correction it fenced in — no rollback, no implicit
// degradation — while its peers advance; the slot boundary behaves the
// same as for any missed epoch.
func TestPartitionedReplicaKeepsFencedSub(t *testing.T) {
	sys := testSystem()
	dcfg := dispatch.Config{Seed: 47, SlotSeconds: 60}
	drv := testDriver(sys, dcfg, nil)
	ccfg := testClusterConfig(0)
	p := NewPublisher(ccfg, drv, nil)
	r0 := NewReplica("r0", sys, dcfg, ccfg, nil)
	r1 := NewReplica("r1", sys, dcfg, ccfg, nil)

	p.Beat("r0", 0)
	p.Beat("r1", 0)
	pub, err := p.PublishSlot(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*Replica{r0, r1} {
		if _, err := r.Apply(pub, 0); err != nil {
			t.Fatal(err)
		}
	}
	cp1 := p.PublishControl(controlWire(t, pub, 1.4, dcfg), 0)
	for _, r := range []*Replica{r0, r1} {
		if installed, err := r.Apply(cp1, 10); err != nil || !installed {
			t.Fatalf("%s correction: %v %v", r.ID, installed, err)
		}
	}
	// r1 partitions; only r0 sees the second correction.
	cp2 := p.PublishControl(controlWire(t, cp1, 0.9, dcfg), 0)
	if cp2 == nil || cp2.Sub != 2 {
		t.Fatalf("second correction: %+v", cp2)
	}
	if installed, err := r0.Apply(cp2, 20); err != nil || !installed {
		t.Fatalf("r0 second correction: %v %v", installed, err)
	}
	if r0.Sub() != 2 || r1.Sub() != 1 {
		t.Fatalf("subs (r0=%d, r1=%d), want (2, 1)", r0.Sub(), r1.Sub())
	}
	r1Rate := r1.Gateway().Table().Lanes[0].Rate
	if r1.Degraded() || !r1.Ready() {
		t.Fatal("partitioned replica dropped out of serving mid-slot")
	}
	// Mid-slot ticks (same slot) do not punish the partition.
	r1.Tick(0, 30)
	if r1.Staleness() != 0 || r1.Gateway().Table().Lanes[0].Rate != r1Rate {
		t.Fatal("same-slot tick disturbed the fenced table")
	}
	// Reconnection: the next slot epoch lands normally on both.
	pub2, err := p.PublishSlot(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*Replica{r0, r1} {
		if installed, err := r.Apply(pub2, 60); err != nil || !installed {
			t.Fatalf("%s rejoin epoch: %v %v", r.ID, installed, err)
		}
	}
	if r0.Sub() != 0 || r1.Sub() != 0 {
		t.Fatalf("post-rejoin subs (%d,%d), want (0,0)", r0.Sub(), r1.Sub())
	}
}

// TestStaleDowngradeAppliesExactlyOnce: the conservative-shed downgrade
// multiplies the last good plan by staleShare once — consecutive stale
// slot boundaries re-arm the same downgraded table instead of
// compounding Scale(staleShare) into factor^n oblivion.
func TestStaleDowngradeAppliesExactlyOnce(t *testing.T) {
	sys := testSystem()
	dcfg := dispatch.Config{Seed: 53, SlotSeconds: 60}
	drv := testDriver(sys, dcfg, nil)
	ccfg := testClusterConfig(0)
	p := NewPublisher(ccfg, drv, nil)
	r := NewReplica("r0", sys, dcfg, ccfg, nil)

	p.Beat("r0", 0)
	pub, err := p.PublishSlot(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Apply(pub, 0); err != nil {
		t.Fatal(err)
	}
	T := sys.Slot()
	full := make([]float64, len(r.Gateway().Table().Lanes))
	for i, ln := range r.Gateway().Table().Lanes {
		full[i] = ln.Rate
	}
	// Walk six missed boundaries: staleness 2 crosses the TTL; every
	// boundary after it must keep the rate at exactly full·staleShare.
	for slot := 1; slot <= 6; slot++ {
		r.Tick(slot, float64(slot)*T)
		if slot < staleSlots {
			if r.Degraded() {
				t.Fatalf("slot %d: degraded before the TTL", slot)
			}
			continue
		}
		if !r.Degraded() {
			t.Fatalf("slot %d: not degraded past the TTL", slot)
		}
		for i, ln := range r.Gateway().Table().Lanes {
			want := full[i] * staleShare
			if ln.Rate != want {
				t.Fatalf("slot %d lane %d rate %g, want exactly %g (downgrade compounded?)",
					slot, i, ln.Rate, want)
			}
		}
	}
	if r.Staleness() != 6 {
		t.Fatalf("staleness %d after six missed boundaries, want 6", r.Staleness())
	}
}
