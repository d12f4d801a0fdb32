// Three-level parallelism (§VI): scan worker threads on the SQL node,
// SAL fan-out of batch-read sub-batches across Page Stores, and
// concurrent NDP worker threads within each Page Store. This example
// runs a parallel NDP aggregate scan and shows all three levels engaged.
package main

import (
	"fmt"
	"log"

	"taurus/internal/core"
	"taurus/internal/engine"
	"taurus/internal/exec"
	"taurus/internal/expr"
	"taurus/internal/testutil"
)

func main() {
	c, err := testutil.NewCluster(testutil.Options{
		PageStores: 4, PagesPerSlice: 16, PoolPages: 128,
	})
	if err != nil {
		log.Fatal(err)
	}
	tbl, err := c.LoadWorkers(8000)
	if err != nil {
		log.Fatal(err)
	}
	c.Engine.Pool().Clear()

	// SELECT COUNT(*), SUM(age) FROM worker WHERE age < 35, with the
	// predicate, the (id, age) projection and both aggregates pushed to
	// the Page Stores.
	opts := engine.ScanOptions{
		Index:      tbl.Primary,
		Predicate:  expr.LT(expr.Col(1, "age"), expr.ConstInt(35)),
		Projection: []int{0, 1},
		NDP: &engine.NDPPush{
			PushPredicate: true, PushProjection: true,
			Aggs: []core.AggSpec{{Fn: core.AggCountStar, ArgCol: -1}, {Fn: core.AggSum, ArgCol: 1}},
		},
	}

	// Level 1: the scan's stamped leaf list splits into one partition
	// per slice, and a pool of scan workers runs them concurrently.
	const workers = 4
	c.Engine.SetScanParallelism(workers)
	ps, err := c.Engine.PrepareNDPScan(opts)
	if err != nil {
		log.Fatal(err)
	}
	ctx := exec.NewCtx(c.Engine)
	before := c.Transport.Stats.Snapshot()
	rows, err := exec.Run(ctx, &exec.NDPAggScan{Opts: opts, Outputs: []exec.AggOutput{
		{Spec: 0, AvgCount: -1, Name: "count"}, {Spec: 1, AvgCount: -1, Name: "sum_age"},
	}})
	if err != nil {
		log.Fatal(err)
	}
	net := c.Transport.Stats.Snapshot().Sub(before)

	fmt.Printf("parallel NDP scan: %d matching rows via %d scan workers\n", rows[0][0].I, workers)
	fmt.Printf("level 1 (SQL node):    %d slice partitions\n", ps.Parts())
	fmt.Printf("level 2 (across PS):   %d batch-read sub-batches fanned out by the SAL\n", net.BatchReads)
	fmt.Println("level 3 (within a PS): NDP pages processed per store:")
	for i, ps := range c.PageStores {
		s := ps.Snapshot()
		fmt.Printf("   pagestore-%d: %d pages, %d records examined\n", i+1, s.NDPPagesProcessed, s.NDPRecordsIn)
	}
	fmt.Printf("checksum: sum(age) = %d\n", rows[0][1].I)
}
