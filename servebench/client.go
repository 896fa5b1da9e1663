package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"approxqo/internal/trace"
)

// leanDoc is the part of a /optimize success document the checks read.
// The client decodes only this inside the timed window.
type leanDoc struct {
	Rung     string  `json:"rung"`
	Degraded bool    `json:"degraded"`
	Cached   bool    `json:"cached"`
	QueueMS  float64 `json:"queue_ms"`
	WallMS   float64 `json:"wall_ms"`
	Report   struct {
		Best *struct {
			Sequence  []int  `json:"sequence"`
			Cost      string `json:"cost"`
			Exact     bool   `json:"exact"`
			Certified bool   `json:"certified"`
		} `json:"best"`
	} `json:"report"`
}

// ok reports a certified, non-degraded, full-rung result.
func (d *leanDoc) ok() bool {
	return d.Rung == "full" && !d.Degraded && d.Report.Best != nil && d.Report.Best.Certified
}

// maxSeq bounds the join sequences a record holds inline; every
// workload instance has at most 16 relations.
const maxSeq = 16

// record is one timed request as the client saw it. It has a fixed
// size and, outside traced runs and errors, points into no per-request
// memory, so the preallocated records of a window keep the live heap
// independent of how many requests the window completed.
type record struct {
	i, idx    int32 // sequence index and instance index
	status    int32
	seqLen    int8 // -1 when the served sequence does not fit seq
	full      bool // served at the full rung, not degraded
	cached    bool
	hasBest   bool
	exact     bool
	certified bool
	seq       [maxSeq]int8
	lat       time.Duration // send to last response byte
	done      time.Duration // completion, from the start of the window
	wallMS    float64
	queueMS   float64
	costHash  uint64 // FNV-1a of the served cost's JSON text
	errText   string // transport or decode error
	resp      []byte // the raw response, kept only by traced runs
}

// set copies a decoded success document into the record.
func (r *record) set(d *leanDoc) {
	r.full = d.Rung == "full" && !d.Degraded
	r.cached, r.wallMS, r.queueMS = d.Cached, d.WallMS, d.QueueMS
	b := d.Report.Best
	if b == nil {
		return
	}
	r.hasBest, r.exact, r.certified = true, b.Exact, b.Certified
	r.costHash = fnv64(b.Cost)
	r.seqLen = -1
	if len(b.Sequence) > maxSeq {
		return
	}
	for k, v := range b.Sequence {
		if v < 0 || v >= maxSeq {
			return
		}
		r.seq[k] = int8(v)
	}
	r.seqLen = int8(len(b.Sequence))
}

// sequence returns the served join sequence, or nil when it did not
// fit the record (it cannot then be a permutation of any instance sent).
func (r *record) sequence() []int {
	if r.seqLen < 0 {
		return nil
	}
	out := make([]int, r.seqLen)
	for k := range out {
		out[k] = int(r.seq[k])
	}
	return out
}

// fnv64 is the 64-bit FNV-1a hash of s.
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for k := 0; k < len(s); k++ {
		h ^= uint64(s[k])
		h *= 1099511628211
	}
	return h
}

// window is the outcome of one timed window.
type window struct {
	recs      []record
	elapsed   time.Duration
	exhausted bool    // a non-wrapping sequence ran out before the deadline
	probes    []probe // process counters through the window
	heapMB    float64 // live heap after a forced GC at the end
}

// probe is one sample of the process counters.
type probe struct {
	t      time.Duration // from the start of the window
	cpu    time.Duration
	allocs uint64
	rssMB  float64 // sampled every rssEvery probes, else 0
}

// probeEvery is the counter sampling period; a probe costs a getrusage
// call and a runtime/metrics read, about a microsecond.
const (
	probeEvery = 5 * time.Millisecond
	rssEvery   = 20
)

// measure drives the workload from both clients, closed loop, from a
// shared request counter until the deadline, and samples process CPU,
// heap allocations, resident set and live heap around it. With a
// tracer, every client call gets a bench.request span, and every miss
// response plus the first replayHits hit responses of each client are
// kept for the replays.
func measure(ctx context.Context, ls *liveServer, w *workloadDef, d time.Duration, tr *trace.Tracer) (*window, error) {
	runtime.GC()
	var next atomic.Int64
	var exhausted atomic.Bool
	per := make([][]record, clients)
	start := time.Now()
	deadline := start.Add(d)
	stop := make(chan struct{})
	probes := make(chan []probe, 1)
	go sampleCounters(start, stop, probes)
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			var sc relabelScratch
			var buf bytes.Buffer
			recs := make([]record, 0, int(w.maxRate*d.Seconds())/clients+64)
			kept := 0
			for ctx.Err() == nil && time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				idx, ok := w.request(i)
				if !ok {
					exhausted.Store(true)
					break
				}
				body := w.body(i, idx, &sc)
				span := tr.Start("bench.request")
				t0 := time.Now()
				status, err := post(ctx, ls.clients[k], ls.url, body, &buf)
				lat := time.Since(t0)
				span.End()
				if ctx.Err() != nil {
					break // cancelled mid-request: not a server failure
				}
				r := record{i: int32(i), idx: int32(idx), lat: lat, done: time.Since(start), status: int32(status)}
				if err == nil && status == http.StatusOK {
					var doc leanDoc
					if err = json.Unmarshal(buf.Bytes(), &doc); err == nil {
						r.set(&doc)
					}
				}
				if err != nil {
					r.errText = err.Error()
				}
				if tr != nil && (!r.cached || kept < replayHits) {
					r.resp = append([]byte(nil), buf.Bytes()...)
					if r.cached {
						kept++
					}
				}
				recs = append(recs, r)
			}
			per[k] = recs
		}(k)
	}
	wg.Wait()
	win := &window{elapsed: time.Since(start), exhausted: exhausted.Load()}
	close(stop)
	win.probes = <-probes
	runtime.GC()
	win.heapMB = heapLiveMB()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, recs := range per {
		win.recs = append(win.recs, recs...)
	}
	return win, nil
}

// sampleCounters probes the process counters every probeEvery until
// stop closes, then sends the probes, the last one taken at stop.
func sampleCounters(start time.Time, stop <-chan struct{}, out chan<- []probe) {
	tick := time.NewTicker(probeEvery)
	defer tick.Stop()
	ps := make([]probe, 0, 4096)
	take := func() {
		p := probe{t: time.Since(start), cpu: cpuTime(), allocs: heapAllocs()}
		if len(ps)%rssEvery == 0 {
			p.rssMB = rssMB()
		}
		ps = append(ps, p)
	}
	take()
	for {
		select {
		case <-tick.C:
			take()
		case <-stop:
			take()
			out <- ps
			return
		}
	}
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func readMetric(name string) metrics.Value {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value
}

// heapAllocs is the cumulative count of heap objects allocated.
func heapAllocs() uint64 { return readMetric("/gc/heap/allocs:objects").Uint64() }

// heapLiveMB is the heap marked live by the last GC, in MiB.
func heapLiveMB() float64 { return float64(readMetric("/gc/heap/live:bytes").Uint64()) / (1 << 20) }

// rssMB is the process's resident set in MiB, from /proc/self/statm.
func rssMB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0
	}
	return float64(pages*int64(os.Getpagesize())) / (1 << 20)
}
