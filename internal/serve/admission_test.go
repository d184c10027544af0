package serve

import "testing"

func TestAdmitQueueCap(t *testing.T) {
	a := newAdmitter(2, 2)
	if je := a.admit("a"); je != nil {
		t.Fatal(je)
	}
	if je := a.admit("b"); je != nil {
		t.Fatal(je)
	}
	je := a.admit("c")
	if je == nil || je.Code != CodeOverload {
		t.Fatalf("full queue admitted (err %v)", je)
	}
	a.release("a")
	if je := a.admit("c"); je != nil {
		t.Fatalf("release did not free a slot: %v", je)
	}
}

func TestAdmitTenantCap(t *testing.T) {
	a := newAdmitter(10, 1)
	if je := a.admit("a"); je != nil {
		t.Fatal(je)
	}
	if je := a.admit("a"); je == nil || je.Code != CodeOverload {
		t.Fatalf("tenant over cap admitted (err %v)", je)
	}
	// Another tenant is unaffected.
	if je := a.admit("b"); je != nil {
		t.Fatalf("tenant b throttled by tenant a's cap: %v", je)
	}
	a.release("a")
	if je := a.admit("a"); je != nil {
		t.Fatalf("release did not free the tenant slot: %v", je)
	}
}

func TestAdmitDraining(t *testing.T) {
	a := newAdmitter(10, 10)
	if je := a.admit("a"); je != nil {
		t.Fatal(je)
	}
	drained := a.beginDrain()
	if je := a.admit("b"); je == nil || je.Code != CodeDraining {
		t.Fatalf("admission open during drain (err %v)", je)
	}
	select {
	case <-drained:
		t.Fatal("drain gate opened with a job outstanding")
	default:
	}
	a.release("a")
	select {
	case <-drained:
	default:
		t.Fatal("last release did not open the drain gate")
	}
}

func TestBeginDrainEmptyAndIdempotent(t *testing.T) {
	a := newAdmitter(10, 10)
	d1 := a.beginDrain()
	select {
	case <-d1:
	default:
		t.Fatal("empty admitter's drain gate not already open")
	}
	d2 := a.beginDrain()
	select {
	case <-d2:
	default:
		t.Fatal("second beginDrain returned an unopened gate")
	}
}

func TestAdmitterSnapshot(t *testing.T) {
	a := newAdmitter(10, 10)
	a.admit("a")
	a.admit("a")
	a.admit("b")
	queued, tenants, draining := a.snapshot()
	if queued != 3 || tenants["a"] != 2 || tenants["b"] != 1 || draining {
		t.Fatalf("snapshot = %d %v %v", queued, tenants, draining)
	}
	a.release("b")
	_, tenants, _ = a.snapshot()
	if _, ok := tenants["b"]; ok {
		t.Fatal("fully released tenant still in snapshot")
	}
}

// TestSubmitPathSteadyStateAllocs pins the admission hot path — admit,
// breaker gate, breaker verdict, release — at zero allocations per cycle:
// load shedding must not generate garbage exactly when the server is
// busiest.
func TestSubmitPathSteadyStateAllocs(t *testing.T) {
	p := NewSubmitPathBench()
	var err error
	got := testing.AllocsPerRun(100, func() {
		if e := p.Cycle(); e != nil {
			err = e
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got > 0 {
		t.Fatalf("submit path allocates %.1f allocs per cycle, ceiling 0", got)
	}
}
