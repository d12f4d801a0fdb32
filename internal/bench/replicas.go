package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"taurus"
	"taurus/internal/obs"
)

// ReplicaRow is one read-replica scale level: n replicas answering
// point SELECTs while one writer keeps committing on the master.
type ReplicaRow struct {
	Replicas int `json:"replicas"`
	// Readers is reader goroutines per replica.
	Readers int     `json:"readers_per_replica"`
	Seconds float64 `json:"seconds"`
	Reads   int64   `json:"reads"`
	ReadQPS float64 `json:"read_qps"`
	// WriteQPS is the master's concurrent commit rate during the level.
	WriteQPS float64 `json:"write_qps"`
	// P50/P99/MaxLagRecords summarize sampled replica lag (master
	// durable LSN minus replica visible LSN; LSNs are dense, so this
	// counts log records).
	P50LagRecords float64 `json:"p50_lag_records"`
	P99LagRecords float64 `json:"p99_lag_records"`
	MaxLagRecords uint64  `json:"max_lag_records"`
	// StreamBatches counts pushed log frames the replicas consumed;
	// Refreshes counts their on-demand advance cycles (the engine's
	// retention-miss retries), so it stays near zero.
	Refreshes     uint64 `json:"refreshes"`
	StreamBatches uint64 `json:"stream_batches"`
	// RPCRates breaks the level's whole RPC load down by message type
	// (requests/sec on the master's transport, zero-delta types
	// omitted): the replicas' share is MsgLogBatch, MsgFrontier and
	// MsgVersionPin traffic.
	RPCRates map[string]float64 `json:"rpc_rates_per_sec,omitempty"`
}

// ReplicasReport is the persisted BENCH_replicas.json payload.
type ReplicasReport struct {
	Bench string       `json:"bench"`
	Meta  RunMeta      `json:"meta"`
	Rows  []ReplicaRow `json:"rows"`
	// ReadScaling2x is ReadQPS at 2 replicas over 1 replica — the
	// acceptance headline: attaching replicas scales read throughput.
	ReadScaling2x float64 `json:"read_scaling_2x,omitempty"`
	// ReadScalingMax is ReadQPS at the largest level over 1 replica.
	ReadScalingMax float64 `json:"read_scaling_max,omitempty"`
}

// Replicas measures read-QPS scaling and replication lag: one embedded
// master with a continuous writer, n read replicas serving
// point SELECTs from the shared Page Stores, for each n in counts.
func Replicas(duration time.Duration, counts []int, readersPer int) ([]ReplicaRow, error) {
	if duration <= 0 {
		duration = 1500 * time.Millisecond
	}
	if len(counts) == 0 {
		counts = []int{1, 2, 4, 8, 16}
	}
	if readersPer <= 0 {
		readersPer = 2
	}
	const preload = 2000
	var rows []ReplicaRow
	for _, n := range counts {
		master, err := taurus.Open(taurus.Config{PagesPerSlice: 256})
		if err != nil {
			return nil, err
		}
		if _, err := master.Exec(`CREATE TABLE kv (id BIGINT, v INT, PRIMARY KEY(id))`); err != nil {
			master.Close()
			return nil, err
		}
		for base := 0; base < preload; base += 500 {
			q := "INSERT INTO kv VALUES "
			for i := 0; i < 500; i++ {
				if i > 0 {
					q += ","
				}
				q += fmt.Sprintf("(%d, %d)", base+i, (base+i)%97)
			}
			if _, err := master.Exec(q); err != nil {
				master.Close()
				return nil, err
			}
		}
		reps := make([]*taurus.DB, n)
		for i := range reps {
			reps[i], err = taurus.OpenReplica(taurus.Config{Master: master})
			if err != nil {
				// Replicas close before their master.
				for _, rep := range reps[:i] {
					rep.Close()
				}
				master.Close()
				return nil, err
			}
		}
		row, err := runReplicaLevel(master, reps, duration, readersPer)
		for _, rep := range reps {
			rep.Close()
		}
		master.Close()
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// runReplicaLevel drives one scale level: a writer on the master,
// readersPer point-SELECT readers per replica, and a lag sampler.
func runReplicaLevel(master *taurus.DB, reps []*taurus.DB, duration time.Duration, readersPer int) (ReplicaRow, error) {
	row := ReplicaRow{Replicas: len(reps), Readers: readersPer}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var writes, reads atomic.Int64
	errCh := make(chan error, 1+len(reps)*readersPer)
	fail := func(err error) {
		select {
		case errCh <- err:
		default:
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := master.Exec(fmt.Sprintf("INSERT INTO kv VALUES (%d, %d)", 1_000_000+i, i%97)); err != nil {
				fail(err)
				return
			}
			writes.Add(1)
		}
	}()
	for _, rep := range reps {
		for r := 0; r < readersPer; r++ {
			wg.Add(1)
			go func(rep *taurus.DB, seed int) {
				defer wg.Done()
				for i := seed; ; i += 7 {
					select {
					case <-stop:
						return
					default:
					}
					q := fmt.Sprintf("SELECT v FROM kv WHERE id = %d", i%2000)
					if _, err := rep.Exec(q); err != nil {
						fail(err)
						return
					}
					reads.Add(1)
				}
			}(rep, r)
		}
	}
	// Lag sampler: max over replicas each tick, into a histogram so the
	// percentiles come from the same machinery the server exports.
	lagHist := obs.NewHistogram(lagBuckets)
	sampler := time.NewTicker(5 * time.Millisecond)
	rpc0 := master.RPCStats()
	start := time.Now()
	deadline := time.After(duration)
sampling:
	for {
		select {
		case <-deadline:
			break sampling
		case err := <-errCh:
			close(stop)
			wg.Wait()
			return row, err
		case <-sampler.C:
			var worst uint64
			for _, rep := range reps {
				if lag := rep.ReplicaStats().LagRecords; lag > worst {
					worst = lag
				}
			}
			lagHist.Observe(float64(worst))
		}
	}
	sampler.Stop()
	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		return row, err
	default:
	}
	elapsed := time.Since(start).Seconds()
	row.Seconds = elapsed
	row.Reads = reads.Load()
	row.ReadQPS = float64(row.Reads) / elapsed
	row.WriteQPS = float64(writes.Load()) / elapsed
	if snap := lagHist.Snapshot(); snap.Count > 0 {
		row.P50LagRecords = snap.P50
		row.P99LagRecords = snap.P99
		row.MaxLagRecords = uint64(snap.Max)
	}
	rpc := master.RPCStats()
	row.RPCRates = map[string]float64{}
	for msg, st := range rpc {
		if delta := st.Requests - rpc0[msg].Requests; delta > 0 {
			row.RPCRates[msg] = float64(delta) / elapsed
		}
	}
	for _, rep := range reps {
		st := rep.ReplicaStats()
		row.Refreshes += st.Refreshes
		row.StreamBatches += st.StreamBatches
	}
	return row, nil
}

// BuildReplicasReport derives the scaling headlines from the rows.
func BuildReplicasReport(rows []ReplicaRow) ReplicasReport {
	rep := ReplicasReport{Bench: "replicas", Meta: NewRunMeta(), Rows: rows}
	var one, two, maxQPS float64
	maxReplicas := 0
	for _, r := range rows {
		switch r.Replicas {
		case 1:
			one = r.ReadQPS
		case 2:
			two = r.ReadQPS
		}
		if r.Replicas > maxReplicas {
			maxReplicas, maxQPS = r.Replicas, r.ReadQPS
		}
	}
	if one > 0 {
		if two > 0 {
			rep.ReadScaling2x = two / one
		}
		rep.ReadScalingMax = maxQPS / one
	}
	return rep
}

// WriteReplicasJSON persists the report.
func WriteReplicasJSON(path string, rep ReplicasReport) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// PrintReplicas renders the replica-scaling table.
func PrintReplicas(w io.Writer, rows []ReplicaRow) {
	fmt.Fprintln(w, "Read-replica scaling: point SELECTs on n replicas beside one continuous writer:")
	fmt.Fprintf(w, "  %-9s %8s %10s %10s %12s %12s %10s %9s\n",
		"replicas", "readers", "reads/s", "writes/s", "p50 lag", "p99 lag", "max lag", "push/s")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-9d %8d %10.0f %10.0f %9.0f rec %9.0f rec %6d rec %9.0f\n",
			r.Replicas, r.Replicas*r.Readers, r.ReadQPS, r.WriteQPS,
			r.P50LagRecords, r.P99LagRecords, r.MaxLagRecords,
			float64(r.StreamBatches)/r.Seconds)
	}
	rep := BuildReplicasReport(rows)
	if rep.ReadScaling2x > 0 {
		fmt.Fprintf(w, "  read scaling: %.2fx at 2 replicas, %.2fx at max\n",
			rep.ReadScaling2x, rep.ReadScalingMax)
	}
}
