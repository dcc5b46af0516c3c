package obs

import (
	"math"
	"reflect"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	var g Gauge
	g.Set(7)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
}

func TestHistogramBucketing(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 2, 3, 4, 100} {
		h.Observe(v)
	}
	s := h.Snapshot()
	// <=1: 0.5, 1  <=2: 1.5, 2  <=4: 3, 4  +Inf: 100
	want := []uint64{2, 2, 2, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 7 {
		t.Fatalf("count = %d, want 7", s.Count)
	}
	if got, want := s.Sum, 0.5+1+1.5+2+3+4+100; math.Abs(got-want) > 1e-9 {
		t.Fatalf("sum = %g, want %g", got, want)
	}
}

func TestHistogramPanicsOnBadBounds(t *testing.T) {
	for _, bounds := range [][]float64{nil, {}, {1, 1}, {2, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHistogram(%v) did not panic", bounds)
				}
			}()
			NewHistogram(bounds)
		}()
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram(ExpBuckets(1, 2, 10))
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(seed + i%17))
			}
		}(w)
	}
	wg.Wait()
	if got := h.count.Load(); got != workers*per {
		t.Fatalf("count = %d, want %d", got, workers*per)
	}
	s := h.Snapshot()
	var total uint64
	for _, c := range s.Counts {
		total += c
	}
	if total != workers*per {
		t.Fatalf("bucket total = %d, want %d", total, workers*per)
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("buckets = %v, want %v", b, want)
		}
	}
	if len(LatencyBuckets()) == 0 || len(BlockBuckets()) == 0 {
		t.Fatal("default buckets empty")
	}
}

func TestMultiSink(t *testing.T) {
	var a, b int
	s := MultiSink(SinkFunc(func(QueryMetrics) { a++ }), nil, SinkFunc(func(QueryMetrics) { b++ }))
	s.RecordQuery(QueryMetrics{})
	if a != 1 || b != 1 {
		t.Fatalf("sinks called a=%d b=%d, want 1/1", a, b)
	}
}

// TestWorkAddCoversEveryField: Add is written out field by field, so a
// counter added to Work and forgotten there would silently drop out of every
// sharded total.
func TestWorkAddCoversEveryField(t *testing.T) {
	var one Work
	v := reflect.ValueOf(&one).Elem()
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.CanInt() {
			f.SetInt(int64(i + 1))
		} else {
			f.SetUint(uint64(i + 1))
		}
	}
	sum := one
	sum.Add(one)
	got := reflect.ValueOf(sum)
	for i := 0; i < got.NumField(); i++ {
		f := got.Field(i)
		if (f.CanInt() && f.Int() != int64(2*(i+1))) || (f.CanUint() && f.Uint() != uint64(2*(i+1))) {
			t.Errorf("Work.Add leaves %s at %v, want %d", got.Type().Field(i).Name, f, 2*(i+1))
		}
	}
}
