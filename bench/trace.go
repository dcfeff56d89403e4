package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
)

// span is one timed call from the benchmark's code into a layer of the
// program (or a grouping span of the benchmark itself, layer "driver").
// Times are ns on the benchmark clock; Count is the VM-ops the call covered.
type span struct {
	ID, Parent  int32
	Name, Layer string
	Start, End  int64
	Count       int64
}

// tracer collects spans in memory and writes them when the run ends. It is
// only ever touched from the run's main goroutine: concurrent clients record
// raw timestamps into their recorders and are folded in after the round. A
// nil *tracer records nothing, which is the untraced run.
type tracer struct {
	spans []span
}

func (t *tracer) begin(parent int32, name, layer string) int32 {
	if t == nil {
		return 0
	}
	return t.add(parent, name, layer, nanos(), 0, 0)
}

func (t *tracer) end(id int32, count int64) {
	if t == nil {
		return
	}
	s := &t.spans[id-1]
	s.End, s.Count = nanos(), count
}

func (t *tracer) add(parent int32, name, layer string, start, end, count int64) int32 {
	if t == nil {
		return 0
	}
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Layer: layer, Start: start, End: end, Count: count})
	return id
}

// addOps folds a recorder's per-op call spans in under parent.
func (t *tracer) addOps(parent int32, layer string, s *script, ops []op, r *recorder, from, to int) {
	if t == nil || r.spans == nil {
		return
	}
	names := [...]string{opArrive: "Arrive", opDepart: "Depart", opArriveBatch: "ArriveBatch", opDepartBatch: "DepartBatch"}
	for i := from; i < to; i++ {
		sp := r.spans[i]
		if sp[1] == 0 {
			continue // skipped departure
		}
		t.add(parent, names[ops[i].kind], layer, sp[0], sp[1], s.vmOpsOf(&ops[i]))
	}
}

// selfByLayer sums, per layer, each span's duration minus the part of it its
// direct children cover. Children of one parent that overlap (concurrent
// clients) are merged first, so self time is never negative.
func (t *tracer) selfByLayer() map[string]int64 {
	if t == nil {
		return nil
	}
	kids := make(map[int32][][2]int64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]int64)
	for _, s := range t.spans {
		iv := kids[s.ID]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		covered, hi := int64(0), s.Start
		for _, k := range iv {
			lo := max(k[0], hi)
			if e := min(k[1], s.End); e > lo {
				covered += e - lo
				hi = e
			}
		}
		out[s.Layer] += s.End - s.Start - covered
	}
	return out
}

// maxOpSpansWritten caps how many leaf spans reach the file; every span
// still counts toward the per-layer self times (selfByLayer's result, passed
// to write) in the summary line.
const maxOpSpansWritten = 50_000

func (t *tracer) write(path string, self map[string]int64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	parents := make(map[int32]bool)
	for _, s := range t.spans {
		parents[s.Parent] = true
	}
	leaves := 0
	var buf []byte
	for _, s := range t.spans {
		if !parents[s.ID] {
			if leaves++; leaves > maxOpSpansWritten {
				continue
			}
		}
		buf = buf[:0]
		buf = append(buf, `{"id":`...)
		buf = strconv.AppendInt(buf, int64(s.ID), 10)
		buf = append(buf, `,"parent":`...)
		buf = strconv.AppendInt(buf, int64(s.Parent), 10)
		buf = append(buf, `,"name":`...)
		buf = strconv.AppendQuote(buf, s.Name)
		buf = append(buf, `,"layer":`...)
		buf = strconv.AppendQuote(buf, s.Layer)
		buf = append(buf, `,"start_ns":`...)
		buf = strconv.AppendInt(buf, s.Start, 10)
		buf = append(buf, `,"end_ns":`...)
		buf = strconv.AppendInt(buf, s.End, 10)
		buf = append(buf, `,"count":`...)
		buf = strconv.AppendInt(buf, s.Count, 10)
		buf = append(buf, "}\n"...)
		w.Write(buf)
	}
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	fmt.Fprintf(w, `{"summary":"self_ns_by_layer","spans":%d,"leaf_spans_omitted":%d`, len(t.spans), max(0, leaves-maxOpSpansWritten))
	for _, l := range layers {
		fmt.Fprintf(w, `,%s:%d`, strconv.Quote(l), self[l])
	}
	fmt.Fprintln(w, "}")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
