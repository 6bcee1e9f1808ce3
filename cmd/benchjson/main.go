// Command benchjson converts `go test -bench` output on stdin into a
// JSON document on stdout, so CI can archive benchmark results (e.g.
// BENCH_PR2.json) and the performance trajectory of the simulator can
// be tracked across PRs without parsing free-form text.
//
// Usage:
//
//	go test -run XXX -bench . -benchtime 1x . | go run ./cmd/benchjson > BENCH.json
//
// Every benchmark line of the form
//
//	BenchmarkName/sub-8   10   123456 ns/op   42 extra/metric   ...
//
// becomes an entry with its iteration count and every value/unit pair
// as a metric. The trailing -N that `go test` appends to a benchmark's
// name when GOMAXPROCS is N > 1 is stripped, so entries recorded on
// runners with different core counts keep matching names.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// Entry is one benchmark result.
type Entry struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// procSuffix matches the -N GOMAXPROCS suffix of a benchmark name.
var procSuffix = regexp.MustCompile(`-\d+$`)

// benchName strips the GOMAXPROCS suffix from a benchmark name.
func benchName(s string) string { return procSuffix.ReplaceAllString(s, "") }

// parse collects the benchmark lines of `go test -bench` output.
func parse(r io.Reader) ([]Entry, error) {
	var entries []Entry
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		e := Entry{Name: benchName(fields[0]), Iterations: iters, Metrics: map[string]float64{}}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			e.Metrics[fields[i+1]] = v
		}
		entries = append(entries, e)
	}
	return entries, sc.Err()
}

func main() {
	entries, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	out, err := json.MarshalIndent(struct {
		Benchmarks []Entry `json:"benchmarks"`
	}{entries}, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	os.Stdout.Write(append(out, '\n'))
}
