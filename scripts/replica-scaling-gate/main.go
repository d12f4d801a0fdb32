// Command replica-scaling-gate is the CI gate for push-based replica
// fan-out: it runs the in-process replica bench at 1, 2, and 4 replicas
// and fails if attaching replicas stops scaling reads (read_scaling_2x
// < the threshold) or drags down the master's write throughput (write
// QPS at the largest level below the allowed fraction of the 1-replica
// baseline). It also fails outright — on any machine — if the replicas
// consumed no pushed batches.
//
// Scaling assertions are meaningless without parallelism, so on a
// single-CPU runner (runtime.NumCPU() < 2) the bench still runs as a
// smoke test but the thresholds are reported and skipped.
//
//	go run ./scripts/replica-scaling-gate
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"time"

	"taurus/internal/bench"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("replica-scaling-gate: ")
	duration := flag.Duration("duration", 2*time.Second, "measured write/read window per replica level")
	minScaling2x := flag.Float64("min-read-scaling-2x", 1.7, "minimum read QPS ratio going 1 -> 2 replicas")
	minWriteRatio := flag.Float64("min-write-ratio", 0.9, "minimum master write QPS at the largest level as a fraction of the 1-replica baseline")
	flag.Parse()

	rows, err := bench.Replicas(*duration, []int{1, 2, 4}, 0)
	if err != nil {
		log.Fatalf("bench failed: %v", err)
	}
	bench.PrintReplicas(os.Stdout, rows)
	rep := bench.BuildReplicasReport(rows)

	// Holds on any hardware: the stores push to subscribed replicas.
	failed := false
	for _, r := range rows {
		if r.StreamBatches == 0 {
			log.Printf("FAIL: %d replicas consumed zero pushed batches", r.Replicas)
			failed = true
		}
	}

	var base, last bench.ReplicaRow
	for _, r := range rows {
		if r.Replicas == 1 {
			base = r
		}
		last = r
	}
	writeRatio := 0.0
	if base.WriteQPS > 0 {
		writeRatio = last.WriteQPS / base.WriteQPS
	}
	fmt.Printf("gate: read_scaling_2x=%.2f (min %.2f), write ratio at %d replicas=%.2f (min %.2f)\n",
		rep.ReadScaling2x, *minScaling2x, last.Replicas, writeRatio, *minWriteRatio)

	if runtime.NumCPU() < 2 {
		fmt.Printf("gate: NumCPU=%d — scaling thresholds skipped (need parallelism to be meaningful)\n", runtime.NumCPU())
	} else {
		if rep.ReadScaling2x < *minScaling2x {
			log.Printf("FAIL: read_scaling_2x %.2f < %.2f", rep.ReadScaling2x, *minScaling2x)
			failed = true
		}
		if writeRatio < *minWriteRatio {
			log.Printf("FAIL: master write QPS ratio %.2f < %.2f at %d replicas", writeRatio, *minWriteRatio, last.Replicas)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
	fmt.Println("gate: ok")
}
