package faultinject

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"demaq/internal/vfs"
)

// toyLog is the log the toy workload writes: three records, each synced.
var toyLog = []byte("rec-0;rec-1;rec-2;")

// toyScenario is a deterministic workload on a log and a data file: it
// formats the data file, then per record appends it to the log, syncs,
// writes a data page and rewrites the data file's header. Its check: the
// log holds no more than the workload wrote.
func toyScenario() Scenario[*FaultFS] {
	return Scenario[*FaultFS]{
		Exact: true,
		Setup: func(_ testing.TB, fs *FaultFS, _ *FaultNet) *FaultFS { return fs },
		Run: func(_ testing.TB, fs *FaultFS) (err error) {
			log, _ := fs.OpenFile("toy/wal.000001.log")
			data, _ := fs.OpenFile("toy/data.db")
			// Each step runs only while the ones before it succeeded.
			write := func(f vfs.File, p []byte, off int64) {
				if err == nil {
					_, err = f.WriteAt(p, off)
				}
			}
			sync := func(f vfs.File) {
				if err == nil {
					err = f.Sync()
				}
			}
			write(data, make([]byte, 2*headerBytes), 0)
			for i := 0; i < 3; i++ {
				write(log, toyLog[6*i:6*i+6], int64(6*i))
				sync(log)
				write(data, bytes.Repeat([]byte{byte(i)}, headerBytes), headerBytes)
				write(data, []byte{byte(i)}, 64)
			}
			sync(data)
			return err
		},
		Check: func(t testing.TB, fs *FaultFS) {
			if got := fs.DurableSize("toy/wal.000001.log"); got > len(toyLog) {
				t.Fatalf("the log holds %d bytes, the workload wrote %d", got, len(toyLog))
			}
		},
	}
}

func siteNames(sites []visit) []string {
	var names []string
	for _, v := range sites {
		names = append(names, v.name)
	}
	return names
}

// TestSweepSiteNames: a site is named by its operation, its file's class
// and its ordinal in that class, the same in every run; a write into the
// first page of the data file that it does not extend is a header write.
func TestSweepSiteNames(t *testing.T) {
	sc := toyScenario()
	want := []string{"write-data-1"}
	for i := 1; i <= 3; i++ {
		want = append(want, fmt.Sprintf("write-wal-%d", i), fmt.Sprintf("sync-wal-%d", i),
			fmt.Sprintf("write-data-%d", i+1), fmt.Sprintf("write-header-%d", i))
	}
	want = append(want, "sync-data-1")
	for run := 0; run < 3; run++ {
		if got := siteNames(sites(sc.probe(t), nil)); !slices.Equal(got, want) {
			t.Fatalf("run %d names the sites %v, want %v", run, got, want)
		}
	}
}

// TestSweepSiteTriggerHitsProbedOperation: arming a site crashes the
// workload at the operation the probe traced under the site's name, and
// the crash ends the workload.
func TestSweepSiteTriggerHitsProbedOperation(t *testing.T) {
	sc := toyScenario()
	for _, v := range sites(sc.probe(t), nil) {
		for _, tear := range []bool{false, true} {
			fs := NewFaultFS(1)
			fs.armSite(v.site, 2, tear, -1)
			err := sc.Run(t, fs)
			if got, ok := fs.Fired(); !ok || got != v.probe {
				t.Fatalf("%s (tear %v): crashed at %v (fired %v), the probe ran %v there", v.name, tear, got, ok, v.probe)
			}
			if err == nil {
				t.Fatalf("%s: the workload went on after the crash", v.name)
			}
		}
	}
}

// TestSweepShortSampleIsStable: -short visits the same sites on every run,
// at most the budget, from the first site on, and all of them when they
// fit.
func TestSweepShortSampleIsStable(t *testing.T) {
	sc := toyScenario()
	first := siteNames(shortSample(sites(sc.probe(t), nil), 4))
	// 14 sites, a budget of 4: every 14/4+1 = 4th.
	if want := []string{"write-data-1", "write-header-1", "write-header-2", "write-header-3"}; !slices.Equal(first, want) {
		t.Fatalf("-short visits %v, want %v", first, want)
	}
	for run := 0; run < 3; run++ {
		if got := siteNames(shortSample(sites(sc.probe(t), nil), 4)); !slices.Equal(got, first) {
			t.Fatalf("run %d visits %v under -short, the first run %v", run, got, first)
		}
	}
	if all := sites(sc.probe(t), nil); len(shortSample(all, len(all))) != len(all) {
		t.Fatal("a budget of every site drops some")
	}
}

// fakeTB records what a site logs and how it ends; Fatal ends the calling
// goroutine as testing.T's does.
type fakeTB struct {
	testing.TB // the methods fakeTB does not implement panic
	name       string
	failed     bool
	logs       []string
}

func (f *fakeTB) Helper()         {}
func (f *fakeTB) Name() string    { return f.name }
func (f *fakeTB) Failed() bool    { return f.failed }
func (f *fakeTB) Log(args ...any) { f.logs = append(f.logs, fmt.Sprint(args...)) }
func (f *fakeTB) Logf(format string, args ...any) {
	f.logs = append(f.logs, fmt.Sprintf(format, args...))
}
func (f *fakeTB) Errorf(format string, args ...any) {
	f.failed = true
	f.Logf(format, args...)
}
func (f *fakeTB) Fatalf(format string, args ...any) {
	f.Errorf(format, args...)
	runtime.Goexit()
}
func (f *fakeTB) Fatal(args ...any) { f.Fatalf("%s", fmt.Sprint(args...)) }

// TestSweepReportsReplay: a failing site logs the go test command that
// reruns it alone; a passing one logs nothing.
func TestSweepReportsReplay(t *testing.T) {
	sc := toyScenario()
	sites := sites(sc.probe(t), nil)
	run := func(sc Scenario[*FaultFS], v visit) *fakeTB {
		tb := &fakeTB{name: "TestToy/" + v.name}
		done := make(chan struct{})
		go func() {
			defer close(done)
			sc.visit(tb, v)
		}()
		<-done
		return tb
	}
	if tb := run(sc, sites[1]); tb.failed || len(tb.logs) != 0 {
		t.Fatalf("a passing site failed (%v) or logged %q", tb.failed, tb.logs)
	}
	// A model that wants the whole log fails every site before the last
	// record's write.
	sc.Check = func(t testing.TB, fs *FaultFS) {
		if got := fs.DurableSize("toy/wal.000001.log"); got < len(toyLog) {
			t.Fatalf("the log holds %d bytes", got)
		}
	}
	v := sites[slices.IndexFunc(sites, func(v visit) bool { return v.name == "sync-wal-2" })]
	tb := run(sc, v)
	want := "replay: go test ./internal/faultinject -run '^TestToy$/^sync-wal-2$' -count=1"
	if !tb.failed || !slices.Contains(tb.logs, want) {
		t.Fatalf("the failing site logged %q, want the line %q", tb.logs, want)
	}
	if got := strings.Count(strings.Join(tb.logs, "\n"), "replay:"); got != 1 {
		t.Fatalf("%d replay lines", got)
	}
}
