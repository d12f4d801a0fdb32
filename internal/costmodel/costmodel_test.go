package costmodel

import "testing"

func TestRuntimeBottlenecks(t *testing.T) {
	m := Model{
		NetBytesPerSec: 100, NetLatencyPerReq: 0.001,
		CPUUnitsPerSec: 100, StoreRecordsPerSec: 100, StoreParallelism: 2,
	}
	// Pure CPU work divides by DOP.
	w := Work{ParallelCPUUnits: 100}
	if got := m.Runtime(w, 1); got != 1.0 {
		t.Fatalf("dop1 = %v", got)
	}
	if got := m.Runtime(w, 4); got != 0.25 {
		t.Fatalf("dop4 = %v", got)
	}
	// Serial work never divides.
	w = Work{SerialCPUUnits: 100, ParallelCPUUnits: 100}
	if got := m.Runtime(w, 100); got <= 1.0 {
		t.Fatalf("serial floor violated: %v", got)
	}
	// Network bandwidth is a DOP-independent floor.
	w = Work{ParallelCPUUnits: 100, NetBytes: 1000} // net = 10s
	if got := m.Runtime(w, 100); got != 10.0 {
		t.Fatalf("net floor = %v", got)
	}
	// Request latency divides with DOP (parallel lookups).
	w = Work{NetRequests: 1000} // 1s of latency
	if got := m.Runtime(w, 10); got != 0.1 {
		t.Fatalf("latency/dop = %v", got)
	}
	// Storage time uses store parallelism, not DOP.
	w = Work{StoreRecords: 1000} // 1000/100/2 = 5s
	if got := m.Runtime(w, 64); got != 5.0 {
		t.Fatalf("store floor = %v", got)
	}
	// dop < 1 clamps.
	if m.Runtime(Work{ParallelCPUUnits: 100}, 0) != 1.0 {
		t.Fatal("dop clamp")
	}
}

func TestReduction(t *testing.T) {
	if Reduction(10, 5) != 50 {
		t.Fatal("50% expected")
	}
	if Reduction(0, 5) != 0 {
		t.Fatal("zero base guards")
	}
	if Reduction(10, 10) != 0 {
		t.Fatal("no change → 0")
	}
}

func TestDefaultModelCalibration(t *testing.T) {
	m := DefaultModel()
	if m.NetBytesPerSec <= 0 || m.CPUUnitsPerSec <= 0 || m.StoreParallelism <= 0 {
		t.Fatal("default model incomplete")
	}
}
