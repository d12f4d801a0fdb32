// Command metrics-smoke is the CI gate for the observability surface:
// it starts a taurus-server frontend with a -stats-addr, drives a few
// statements through POST /query — one under a forced distributed trace
// — scrapes GET /metrics, and fails on a malformed Prometheus
// exposition, a missing core metric family, a /trace/<id> tree that
// does not span multiple node roles, or an empty /events flight
// recorder. It also checks GET /stats still parses as JSON. Then it
// starts a standalone -role pagestore and -role logstore and requires,
// on each node's own /metrics, the families the README runbook rows
// send operators there for.
//
//	go build -o /tmp/taurus-server ./cmd/taurus-server
//	go run ./scripts/metrics-smoke -server /tmp/taurus-server
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"time"

	"taurus/internal/obs"
)

// coreFamilies must all appear on a frontend's /metrics after a write
// and a read: one family per instrumented tier.
var coreFamilies = []string{
	"taurus_writepath_stage_seconds",
	"taurus_rpc_requests_total",
	"taurus_rpc_latency_seconds",
	"taurus_buffer_hits_total",
	"taurus_buffer_misses_total",
	"taurus_sal_durable_lsn",
	"taurus_logstore_durable_lsn",
	"taurus_logstore_append_seconds",
	"taurus_pagestore_records_applied_total",
	"taurus_pagestore_apply_seconds",
	"taurus_engine_rows_emitted_total",
	"taurus_slow_ops_fired_total",
}

// nodeFamilies are the runbook families (RB-APPLY-BACKLOG,
// RB-CHECKPOINT-AGE, RB-VERSION-PIN, RB-PIPELINE-STUCK, RB-STREAM-STALL)
// an operator reads on a standalone storage node's /metrics.
var nodeFamilies = map[string][]string{
	"pagestore": {
		"taurus_pagestore_apply_seconds",
		"taurus_pagestore_persisted_lsn",
		"taurus_pagestore_version_pins",
	},
	"logstore": {
		"taurus_logstore_append_seconds",
		"taurus_logstore_stream_lag_records",
	},
}

func main() {
	server := flag.String("server", "taurus-server", "path to the taurus-server binary")
	listen := flag.String("listen", "127.0.0.1:17290", "frontend query address")
	statsAddr := flag.String("stats-addr", "127.0.0.1:17291", "frontend stats address")
	psListen := flag.String("pagestore-listen", "127.0.0.1:17292", "standalone Page Store address")
	psStats := flag.String("pagestore-stats-addr", "127.0.0.1:17293", "standalone Page Store stats address")
	lsListen := flag.String("logstore-listen", "127.0.0.1:17294", "standalone Log Store address")
	lsStats := flag.String("logstore-stats-addr", "127.0.0.1:17295", "standalone Log Store stats address")
	timeout := flag.Duration("timeout", 15*time.Second, "startup deadline")
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("metrics-smoke: ")

	stop := start(*server, "frontend", *listen, *statsAddr)
	err := run(*listen, *statsAddr, *timeout)
	stop()
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("ok: /metrics valid with all %d core families, /stats parses", len(coreFamilies))

	for _, n := range []struct{ role, listen, stats string }{
		{"pagestore", *psListen, *psStats},
		{"logstore", *lsListen, *lsStats},
	} {
		stop := start(*server, n.role, n.listen, n.stats)
		err := waitUp("http://"+n.stats+"/metrics", *timeout)
		if err == nil {
			err = requireFamilies("http://"+n.stats+"/metrics", nodeFamilies[n.role])
		}
		stop()
		if err != nil {
			log.Fatalf("%s: %v", n.role, err)
		}
		log.Printf("ok: %s /metrics has its %d runbook families", n.role, len(nodeFamilies[n.role]))
	}
}

// start runs one taurus-server of the given role and returns the func
// that kills it.
func start(server, role, listen, statsAddr string) (stop func()) {
	cmd := exec.Command(server, "-role", role, "-listen", listen, "-stats-addr", statsAddr)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		log.Fatalf("starting %s -role %s: %v", server, role, err)
	}
	return func() {
		cmd.Process.Kill()
		cmd.Wait()
	}
}

func run(listen, statsAddr string, timeout time.Duration) error {
	queryURL := "http://" + listen + "/query"
	if err := waitUp(queryURL, timeout); err != nil {
		return err
	}
	for _, stmt := range []string{
		`CREATE TABLE smoke (id BIGINT, v INT, PRIMARY KEY(id))`,
		`INSERT INTO smoke VALUES (1, 10), (2, 20), (3, 30)`,
		`SELECT SUM(v) FROM smoke WHERE id > 0`,
	} {
		resp, err := http.Post(queryURL, "text/plain", strings.NewReader(stmt))
		if err != nil {
			return fmt.Errorf("POST /query: %w", err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("POST /query %q: %d: %s", stmt, resp.StatusCode, body)
		}
	}

	if err := checkTrace(queryURL, statsAddr); err != nil {
		return err
	}
	if err := checkEvents(statsAddr); err != nil {
		return err
	}

	if err := requireFamilies("http://"+statsAddr+"/metrics", coreFamilies); err != nil {
		return err
	}

	stats, err := fetch("http://" + statsAddr + "/stats")
	if err != nil {
		return err
	}
	var payload map[string]any
	if err := json.Unmarshal([]byte(stats), &payload); err != nil {
		return fmt.Errorf("/stats is not valid JSON: %w", err)
	}
	if _, ok := payload["WritePath"]; !ok {
		return fmt.Errorf("/stats lost its WritePath section")
	}
	return nil
}

// requireFamilies fails on a malformed exposition at url or one that
// lacks any of want.
func requireFamilies(url string, want []string) error {
	text, err := fetch(url)
	if err != nil {
		return err
	}
	families, err := obs.ValidateExposition(text)
	if err != nil {
		return fmt.Errorf("malformed /metrics exposition: %w", err)
	}
	var missing []string
	for _, f := range want {
		if _, ok := families[f]; !ok {
			missing = append(missing, f)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("/metrics missing families: %s", strings.Join(missing, ", "))
	}
	return nil
}

// checkTrace drives one INSERT under a forced trace (X-Taurus-Trace
// request header) and asserts GET /trace/<id> returns an assembled span
// tree covering at least three node roles: the frontend's SAL stages, a
// Log Store append, and a Page Store apply.
func checkTrace(queryURL, statsAddr string) error {
	req, err := http.NewRequest(http.MethodPost, queryURL,
		strings.NewReader(`INSERT INTO smoke VALUES (4, 40)`))
	if err != nil {
		return err
	}
	req.Header.Set("X-Taurus-Trace", "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return fmt.Errorf("traced POST /query: %w", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("traced POST /query: %d: %s", resp.StatusCode, body)
	}
	id := resp.Header.Get("X-Taurus-Trace")
	if id == "" {
		return fmt.Errorf("traced POST /query returned no X-Taurus-Trace header")
	}
	// The apply fan-out is asynchronous; poll briefly for the Page Store
	// spans to land.
	deadline := time.Now().Add(5 * time.Second)
	for {
		raw, err := fetch("http://" + statsAddr + "/trace/" + id)
		if err != nil {
			return err
		}
		spans, err := obs.SpansFromJSON([]byte(raw))
		if err != nil {
			return fmt.Errorf("/trace/%s: %w", id, err)
		}
		roles := map[string]bool{}
		for _, s := range spans {
			switch {
			case s.Node == "frontend":
				roles["frontend"] = true
			case strings.HasPrefix(s.Node, "log"):
				roles["logstore"] = true
			case strings.HasPrefix(s.Node, "pagestore"):
				roles["pagestore"] = true
			}
		}
		if len(roles) >= 3 {
			if roots := obs.AssembleTrace(spans); len(roots) != 1 {
				return fmt.Errorf("/trace/%s: %d roots, want one statement tree", id, len(roots))
			}
			log.Printf("trace %s: %d spans across %d roles", id, len(spans), len(roles))
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("/trace/%s covers roles %v, want frontend+logstore+pagestore", id, roles)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// checkEvents asserts the flight recorder captured structural events
// (the inserts above must have sealed at least one window).
func checkEvents(statsAddr string) error {
	raw, err := fetch("http://" + statsAddr + "/events")
	if err != nil {
		return err
	}
	var events []obs.Event
	if err := json.Unmarshal([]byte(raw), &events); err != nil {
		return fmt.Errorf("/events is not valid JSON: %w", err)
	}
	if len(events) == 0 {
		return fmt.Errorf("/events is empty after writes")
	}
	for _, ev := range events {
		if ev.Kind == obs.EventWindowSeal {
			return nil
		}
	}
	return fmt.Errorf("/events has no %s event after writes", obs.EventWindowSeal)
}

// waitUp polls until the server answers HTTP (any status).
func waitUp(url string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(url)
		if err == nil {
			resp.Body.Close()
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server not up after %s: %v", timeout, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

func fetch(url string) (string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return "", fmt.Errorf("GET %s: %w", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", fmt.Errorf("GET %s: %w", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: %d: %s", url, resp.StatusCode, body)
	}
	return string(body), nil
}
