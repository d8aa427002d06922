package faultinject

import (
	"errors"
	"fmt"
	"hash/crc32"
	"regexp"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"testing"

	"demaq/internal/vfs"
)

// Scenario is one crash sweep. Sweep runs its workload once with no fault
// armed — the probe — to enumerate the sites, then once per site with it
// armed, each run on a fresh FaultFS and FaultNet: Setup, Run, a reboot of
// the disk (ClearFault), Check. A site is an operation of Run: a FaultFS
// operation named like write-data-12, or with Net a FaultNet send named
// like send-node.in-3, which crashes the FaultFS as it goes out. A node
// that reboots itself when its disk crashes does so inside Run.
type Scenario[S any] struct {
	Disk  *FaultFS // if set, each run starts from a clone of this rebooted disk
	Short int      // a -short run visits all n sites if n <= Short, else every (n/Short+1)-th; 0 visits all
	Net   bool     // the sites are FaultNet sends
	Fault Fault
	// Exact requires each site to crash at the operation the probe traced
	// under its name, and Run to return that crash or nil: for workloads
	// whose operations do not depend on timing. Nil is for a workload that
	// tolerates the failed operation and finishes (a store ignores a failed
	// removal of a dead log segment); a Run that must end in the crash
	// returns an error when it finishes past it.
	Exact    bool
	MinSites int // fails the sweep when the probe yields fewer sites
	// Select, if set, keeps the window operations it accepts as sites; a
	// site's ordinal counts the operations it skips too.
	Select func(window []FaultPoint, i int) bool

	// Setup builds the state Run starts from; its operations are not sites.
	Setup func(t testing.TB, fs *FaultFS, fn *FaultNet) S
	// Run is the workload. Its error fails the probe; at a site it may be
	// the crash.
	Run func(t testing.TB, s S) error
	// Probe, if set, checks what the fault-free run must have done for the
	// sweep to cover what it claims; window is the operations Run made.
	Probe func(t testing.TB, s S, window []FaultPoint)
	// Check holds the rebooted state to the model, after every run.
	Check func(t testing.TB, s S)
	// Reboot, if set, crashes the reboot too: it opens what Check opens and
	// abandons it without writing. After each site Sweep traces it on a
	// clone of the crashed disk, crashes it on the disk at one of those
	// operations, chosen by the subtest's name, and reboots again for Check.
	Reboot func(t testing.TB, fs *FaultFS) error
}

// Fault is what an armed site does to its operation.
type Fault int

const (
	Crash        Fault = iota // crash; a pending write resolves with the seed
	Tear                      // crash, a write persisting its first half
	CrashAndTear              // both, as <site> and <site>-torn
	// CrashAndTearEveryPrefix crashes at each site and tears each write at
	// every length, as <site>-torn-<bytes kept>.
	CrashAndTearEveryPrefix
)

// visit is one subtest: a site and what is armed there.
type visit struct {
	name  string
	site  Site
	probe FaultPoint // the operation the probe made at the site
	tear  bool
	keep  int
}

// Sweep runs the probe on t and then one subtest per selected site; a
// failing site logs the command that reruns it alone. It reports whether
// every selected site ran, which a -run pattern naming one prevents.
func Sweep[S any](t *testing.T, sc Scenario[S]) (all bool) {
	t.Helper()
	window := sc.probe(t)
	sites := sites(window, sc.Select)
	if len(sites) == 0 || len(sites) < sc.MinSites {
		t.Fatalf("the probe yields %d sites in %d operations, want at least max(1, %d)", len(sites), len(window), sc.MinSites)
	}
	if testing.Short() && sc.Short > 0 {
		sites = shortSample(sites, sc.Short)
	}
	ran, n := 0, 0
	for _, site := range sites {
		for _, v := range sc.Fault.visits(site) {
			n++
			t.Run(v.name, func(t *testing.T) {
				ran++
				sc.visit(t, v)
			})
		}
	}
	return ran == n
}

// probe runs the workload with no fault armed and returns its operations.
func (sc *Scenario[S]) probe(t testing.TB) []FaultPoint {
	t.Helper()
	r := &scope{TB: t}
	defer r.close()
	fs, fn := sc.rig(r)
	s := sc.Setup(r, fs, fn)
	from, netFrom := fs.Ops(), fn.Ops()
	if err := sc.Run(r, s); err != nil {
		t.Fatalf("probe: %v", err)
	}
	window := fs.Trace()[from:]
	if sc.Net {
		window = nil
		for _, op := range fn.Trace()[netFrom:] {
			window = append(window, FaultPoint{N: op.N, Path: op.Dest, Class: netClass(op.Dest), Op: "send", Len: op.Len})
		}
	}
	if sc.Probe != nil {
		sc.Probe(r, s, window)
	}
	fs.ClearFault()
	sc.Check(r, s)
	return window
}

// sites names the window's operations and keeps those keep accepts.
func sites(window []FaultPoint, keep func([]FaultPoint, int) bool) []visit {
	var out []visit
	seen := map[[2]string]int{}
	for i, p := range window {
		key := [2]string{p.Op, p.Class}
		seen[key]++
		if keep == nil || keep(window, i) {
			site := Site{Op: p.Op, Class: p.Class, N: seen[key]}
			out = append(out, visit{name: site.String(), site: site, probe: p})
		}
	}
	return out
}

// visits expands a site into the subtests of the fault.
func (f Fault) visits(v visit) []visit {
	torn := func(name string, keep int) visit {
		v := v
		v.name, v.tear, v.keep = name, true, keep
		return v
	}
	switch f {
	case Tear:
		return []visit{torn(v.name, -1)}
	case CrashAndTear:
		return []visit{v, torn(v.name+"-torn", -1)}
	case CrashAndTearEveryPrefix:
		out := []visit{v}
		for keep := 0; v.site.Op == "write" && keep <= v.probe.Len; keep++ {
			out = append(out, torn(fmt.Sprintf("%s-torn-%d", v.name, keep), keep))
		}
		return out
	}
	return []visit{v}
}

// shortSample keeps all n sites if n <= budget, else every (n/budget+1)-th
// from the first on.
func shortSample(sites []visit, budget int) []visit {
	if len(sites) <= budget {
		return sites
	}
	var out []visit
	for i := 0; i < len(sites); i += len(sites)/budget + 1 {
		out = append(out, sites[i])
	}
	return out
}

// visit runs the workload with v armed, reboots and checks.
func (sc *Scenario[S]) visit(t testing.TB, v visit) {
	t.Helper()
	r := &scope{TB: t}
	defer r.close()
	defer func() {
		if t.Failed() {
			t.Logf("replay: %s", replayCommand(t.Name()))
		}
	}()
	fs, fn := sc.rig(r)
	s := sc.Setup(r, fs, fn)
	// A site resolves its crash with a seed of its test's name, in every
	// sweep and in its replay.
	seed := int64(crc32.ChecksumIEEE([]byte(t.Name())))
	if sc.Net {
		fs.armSite(Site{}, seed, false, 0) // reseeds, arms nothing
		var sends atomic.Int64
		fn.SetOpHook(func(op NetOp) {
			if netClass(op.Dest) == v.site.Class && sends.Add(1) == int64(v.site.N) {
				fs.CrashNow()
			}
		})
	} else {
		fs.armSite(v.site, seed, v.tear, v.keep)
	}
	err := sc.Run(r, s)
	if sc.Exact {
		requireFired(t, fs, v.probe, err)
	} else if err != nil {
		t.Fatalf("workload: %v", err)
	}
	fs.ClearFault()
	if sc.Reboot != nil {
		sc.crashReboot(t, fs, seed, v.tear)
	}
	sc.Check(r, s)
}

// crashReboot traces the recovering open of the crashed disk on a clone,
// then crashes the open of the disk itself at one of its operations.
func (sc *Scenario[S]) crashReboot(t testing.TB, fs *FaultFS, seed int64, tear bool) {
	t.Helper()
	clone := fs.Clone(seed)
	from := clone.Ops()
	if err := sc.Reboot(t, clone); err != nil {
		t.Fatalf("recovering open: %v", err)
	}
	if reboot := sites(clone.Trace()[from:], nil); len(reboot) > 0 {
		v := reboot[seed%int64(len(reboot))]
		fs.armSite(v.site, seed, tear, -1)
		requireFired(t, fs, v.probe, sc.Reboot(t, fs))
		fs.ClearFault()
	}
}

// requireFired fails t unless the armed site crashed at want and the
// workload ended in that crash or in nil.
func requireFired(t testing.TB, fs *FaultFS, want FaultPoint, err error) {
	t.Helper()
	got, ok := fs.Fired()
	switch {
	case !ok:
		t.Fatalf("the workload never reached the site %v (it ended with %v)", want, err)
	case got != want:
		t.Fatalf("crashed in %v, the probe ran %v there", got, want)
	case err != nil && !errors.Is(err, vfs.ErrCrashed):
		t.Fatalf("the workload ended with %v, want the crash", err)
	}
}

// rig makes the disk and network of one run; the network closes with it.
// Their seed is fixed: a site reseeds the disk with its own name.
func (sc *Scenario[S]) rig(r *scope) (*FaultFS, *FaultNet) {
	fs, fn := NewFaultFS(1), NewFaultNet(1)
	if sc.Disk != nil {
		fs = sc.Disk.Clone(1)
	}
	r.Cleanup(fn.Close)
	return fs, fn
}

// netClass is the class of sends to dest: the address without its scheme,
// slashes as dots, digits stripped (fnet://node/in is node.in).
func netClass(dest string) string {
	if _, rest, ok := strings.Cut(dest, "://"); ok {
		dest = rest
	}
	return strings.ReplaceAll(stripDigits(dest), "/", ".")
}

// replayCommand is the go test command, run from the module root, that
// runs the test or subtest named name of the running test binary alone.
func replayCommand(name string) string {
	pkg := "."
	if bi, ok := debug.ReadBuildInfo(); ok {
		if rel, ok := strings.CutPrefix(strings.TrimSuffix(bi.Path, ".test"), bi.Main.Path+"/"); ok {
			pkg = "./" + rel
		}
	}
	levels := strings.Split(name, "/")
	for i, l := range levels {
		levels[i] = "^" + regexp.QuoteMeta(l) + "$"
	}
	return fmt.Sprintf("go test %s -run '%s' -count=1", pkg, strings.Join(levels, "/"))
}

// scope is a testing.TB whose cleanups run when one run of a sweep ends,
// not its test: the probe's node stops before the first site starts.
type scope struct {
	testing.TB
	cleanups []func()
}

func (s *scope) Cleanup(f func()) { s.cleanups = append(s.cleanups, f) }

func (s *scope) close() {
	for i := len(s.cleanups) - 1; i >= 0; i-- {
		s.cleanups[i]()
	}
}
