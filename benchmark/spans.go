package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one frame
// (or one engine run) share ID; Parent is the index of the enclosing span in
// the file, -1 for a root.
type span struct {
	Name     string `json:"name"`
	Layer    string `json:"layer"`
	Workload string `json:"workload"`
	ID       int64  `json:"id"`
	Parent   int    `json:"parent"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the workload ends. A nil recorder is
// the untraced run: every method is a no-op, so call sites need no branch.
type recorder struct {
	workload string
	t0       time.Time
	mu       sync.Mutex
	spans    []span
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, t0: time.Now()}
}

// add records a finished span and returns its index (-1 when untraced).
func (r *recorder) add(name, layer string, id int64, parent int, start, end time.Time) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{
		Name: name, Layer: layer, Workload: r.workload, ID: id, Parent: parent,
		StartNS: start.Sub(r.t0).Nanoseconds(), EndNS: end.Sub(r.t0).Nanoseconds(),
	})
	return len(r.spans) - 1
}

// open reserves a span whose end (and perhaps start) is not known yet, so
// children can name it as parent; finish closes it.
func (r *recorder) open(name, layer string, id int64, parent int, start time.Time) int {
	return r.add(name, layer, id, parent, start, start)
}

func (r *recorder) finish(i int, end time.Time) {
	if r == nil || i < 0 {
		return
	}
	r.mu.Lock()
	r.spans[i].EndNS = end.Sub(r.t0).Nanoseconds()
	r.mu.Unlock()
}

// selfTimes returns, per span, its duration minus the part of that interval
// its children cover (overlapping children are counted once).
func selfTimes(spans []span) []int64 {
	type iv struct{ lo, hi int64 }
	kids := make([][]iv, len(spans))
	for _, s := range spans {
		if s.Parent < 0 || s.Parent >= len(spans) {
			continue
		}
		p := spans[s.Parent]
		lo, hi := max(s.StartNS, p.StartNS), min(s.EndNS, p.EndNS)
		if hi > lo {
			kids[s.Parent] = append(kids[s.Parent], iv{lo, hi})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		ivs := kids[i]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		covered, end := int64(0), s.StartNS
		for _, k := range ivs {
			if k.hi <= end {
				continue
			}
			covered += k.hi - max(k.lo, end)
			end = k.hi
		}
		self[i] = s.EndNS - s.StartNS - covered
	}
	return self
}

// spanSummary is one row of the printed ledger: all spans of one name.
type spanSummary struct {
	Name, Layer     string
	Count           int
	TotalNS, SelfNS int64
}

func summarize(spans []span) []spanSummary {
	self := selfTimes(spans)
	idx := map[string]int{}
	var out []spanSummary
	for i, s := range spans {
		j, ok := idx[s.Name]
		if !ok {
			j = len(out)
			idx[s.Name] = j
			out = append(out, spanSummary{Name: s.Name, Layer: s.Layer})
		}
		out[j].Count++
		out[j].TotalNS += s.EndNS - s.StartNS
		out[j].SelfNS += self[i]
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Name < out[b].Name })
	return out
}

// meanUS is the mean duration in µs of the spans named name.
func (r *recorder) meanUS(name string) float64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var total int64
	n := 0
	for _, s := range r.spans {
		if s.Name == name {
			total += s.EndNS - s.StartNS
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(total) / float64(n) / 1e3
}

// flush writes the spans to dir/trace-<workload>.json and prints the ledger
// of span names with their total and self time.
func (r *recorder) flush(dir string, w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	spans := r.spans
	r.mu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	path := filepath.Join(dir, "trace-"+r.workload+".json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "# %d spans -> %s\n", len(spans), path)
	for _, s := range summarize(spans) {
		fmt.Fprintf(w, "# span %-18s layer=%-8s n=%-6d total=%.3fms self=%.3fms\n",
			s.Name, s.Layer, s.Count, float64(s.TotalNS)/1e6, float64(s.SelfNS)/1e6)
	}
	return nil
}
