package dra

import (
	"bufio"
	"bytes"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// linkAllowlist names the functions that stay in shipped code although
// no binary links them, each with the reason it stays. Keys are the
// import path, the receiver type if any, and the function name, joined
// by dots.
var linkAllowlist = map[string]string{
	// The root package is a library: its API is for Go callers, and the
	// binaries use only part of it.
	"repro.ComputeFigure6":           facadeAPI,
	"repro.ComputeFigure7":           facadeAPI,
	"repro.ComputeFigure8":           facadeAPI,
	"repro.ComputeFigure8With":       facadeAPI,
	"repro.Degradation":              facadeAPI,
	"repro.DegradationCurve":         facadeAPI,
	"repro.DRAReliabilityVariant":    facadeAPI,
	"repro.LoadCampaign":             facadeAPI,
	"repro.LoadChaosBundle":          facadeAPI,
	"repro.LoadMCCheckpoint":         facadeAPI,
	"repro.LoadScenarioFile":         facadeAPI,
	"repro.NewInjector":              facadeAPI,
	"repro.NewInvariantChecker":      facadeAPI,
	"repro.NewRouter":                facadeAPI,
	"repro.PaperRates":               facadeAPI,
	"repro.ReliabilitySensitivity":   facadeAPI,
	"repro.ReplayTrial":              facadeAPI,
	"repro.RunCampaign":              facadeAPI,
	"repro.SimulateAvailability":     facadeAPI,
	"repro.SimulateReliability":      facadeAPI,
	"repro.SparingAvailabilityModel": facadeAPI,
	"repro.SparingReliabilityModel":  facadeAPI,
	"repro.SweepMap":                 facadeAPI,
	"repro.SweepRun":                 facadeAPI,
	"repro.TimelineString":           facadeAPI,

	// Internals only the facade reaches.
	"repro/internal/chaos.LoadBundle":                     facadeOnly + " (LoadChaosBundle)",
	"repro/internal/chaos.Replay":                         facadeOnly + " (LoadChaosBundle; docs/chaos.md)",
	"repro/internal/montecarlo.ReplayAvailabilityTrial":   facadeOnly + " (ReplayTrial)",
	"repro/internal/montecarlo.ReplayReliabilityTrial":    facadeOnly + " (ReplayTrial)",
	"repro/internal/montecarlo.ReplayUnavailabilityTrial": facadeOnly + " (ReplayTrial)",
	"repro/internal/montecarlo.replayTrial":               facadeOnly + " (ReplayTrial)",
	"repro/internal/montecarlo.TrialStream":               facadeOnly + " (ReplayTrial)",
	"repro/internal/montecarlo.TrialPanicError.Error":     facadeOnly + " (ReplayTrial's panic error)",
	"repro/internal/perf.PaperParams":                     facadeOnly + " (Degradation)",

	// Ablation models behind EXPERIMENTS A4 (Figure 5(b) readings), A6
	// (sparing vs DRA) and A8 (Erlang repair); the facade and the
	// ablation benchmarks reach them.
	"repro/internal/models.DRAAvailabilityConservative":    ablationA4,
	"repro/internal/models.DRAReliabilityConservative":     ablationA4,
	"repro/internal/models.DRAReliabilityOptimisticTPrime": ablationA4,
	"repro/internal/models.buildDRAVariant":                ablationA4,
	"repro/internal/models.SparingAvailability":            ablationA6,
	"repro/internal/models.SparingParams.Cost":             ablationA6,
	"repro/internal/models.SparingParams.Validate":         ablationA6,
	"repro/internal/models.SparingReliability":             ablationA6,
	"repro/internal/models.buildSparing":                   ablationA6,
	"repro/internal/models.newSparingChain":                ablationA6,
	"repro/internal/models.sparingState":                   ablationA6,
	"repro/internal/models.DRAAvailabilityErlangRepair":    ablationA8,
	"repro/internal/models.IsOperationalErlang":            ablationA8,
	"repro/internal/models.Model.AvailabilityErlang":       ablationA8,
	"repro/internal/models.rebuildDRAFailures":             ablationA8,
	"repro/internal/models.repairState":                    ablationA8,

	// Wire codecs of the paper's three-tier control packets and fabric
	// cells; the bus model passes structs, the codecs are fuzzed.
	"repro/internal/eib.ControlPacket.Marshal": wireCodec,
	"repro/internal/eib.UnmarshalControl":      wireCodec,
	"repro/internal/eib.checksum":              wireCodec,
	"repro/internal/packet.MarshalCell":        wireCodec,
	"repro/internal/packet.UnmarshalCell":      wireCodec,

	// Oracles and reference paths that another package's tests or
	// benchmarks use, so they cannot move into a _test.go file.
	"repro/internal/markov.Chain.TransientRK45":                "independent RK45 cross-check of uniformization (EXPERIMENTS A3); models tests and BenchmarkSolverComparison use it",
	"repro/internal/markov.Chain.SampleTimeToAbsorption":       "Gillespie cross-check (EXPERIMENTS A3); BenchmarkSolverComparison's gillespie-1k row uses it",
	"repro/internal/markov.Chain.TransientAtSerialDense":       serialDense,
	"repro/internal/markov.Chain.TransientSeriesSerialDense":   serialDense,
	"repro/internal/markov.UniformizedDenseReference":          serialDense,
	"repro/internal/models.Model.ReliabilitySeriesSerialDense": serialDense,
	"repro/internal/markov.Chain.MaxExitRate":                  "uniformization rate of the serial-dense reference solver and RK45's step bound",
	"repro/internal/linalg.CSR.Rows":                           "read by the serial-dense reference solver",
	"repro/internal/linalg.CSR.NNZ":                            "read by the serial-dense reference solver",
	"repro/internal/linalg.CSR.At":                             "markov tests read generator entries through it",
	"repro/internal/linalg.SteadyStateLU":                      "LU cross-check of GTH; the models tests use it",
	"repro/internal/metrics.Registry.LintNames":                "metric naming lint the metrics and server tests run on live registries",
	"repro/internal/metrics.validMetricName":                   "metric naming lint the metrics and server tests run on live registries",
	"repro/internal/invariant.Checker.Total":                   "violation count the router and topology conformance tests assert on",
	"repro/internal/trace.Recorder.Dump":                       "stable text dump the trace and router tests compare",
	"repro/internal/router.Router.OfferedLoad":                 "read back by the router and config tests",
	"repro/internal/linecard.LC.FailPort":                      "port cuts the router and linecard tests inject",
	"repro/internal/linecard.LC.RepairPort":                    "port repair paired with FailPort; the linecard tests use it",
	"repro/internal/packet.Release":                            "the pool's release half: router and packet tests and make poolcheck exercise use-after-Release",
	"repro/internal/packet.poison":                             "called by Release; poison_on.go arms it under the poolcheck tag",
	"repro/internal/eib.Bus.Sniff":                             "protocol analyzer the eib and router protocol tests attach",
	"repro/internal/eib.Controller.RequestLookup":              "the control protocol's lookup request, driven by the eib and router protocol tests and FuzzControlProtocol",
	"repro/internal/eib.Arbiter.Schedule":                      "Figure 4 turn-sequence generator; BenchmarkEIBScheduling uses it",
	"repro/internal/simbench.RunScheduler":                     "bench/layers.go names it as the definition of sim.scheduler_ns",
}

const (
	facadeAPI   = "root facade library API"
	facadeOnly  = "reached only through the root facade"
	ablationA4  = "EXPERIMENTS A4 ablation model"
	ablationA6  = "EXPERIMENTS A6 ablation model"
	ablationA8  = "EXPERIMENTS A8 ablation model"
	wireCodec   = "wire codec, fuzzed by make fuzz-smoke"
	serialDense = "serial-dense reference solver: markov property tests and BenchmarkSolverComparison (BENCH_solver.json) compare against it"
)

// TestEveryFunctionIsLinked builds every binary this repository ships
// and fails on any function of a non-test file that none of them links
// and linkAllowlist does not name. Code that only tests call belongs in
// a _test.go file; code nothing calls belongs in git history.
func TestEveryFunctionIsLinked(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every binary")
	}
	pkgs := listPackages(t)
	linked := linkedSymbols(t, pkgs)

	var unlinked []string
	declared := map[string]bool{}
	fset := token.NewFileSet()
	for _, p := range pkgs {
		syms := linked[""]
		prefix := p.ImportPath
		if p.Name == "main" {
			syms, prefix = linked[p.ImportPath], "main"
		}
		for _, name := range p.GoFiles {
			file := filepath.Join(p.Dir, name)
			f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range f.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok || fn.Name.Name == "init" || fn.Name.Name == "_" {
					continue
				}
				decl := fn.Name.Name
				if fn.Recv != nil {
					decl = receiverName(fn.Recv.List[0].Type) + "." + decl
				}
				key := p.ImportPath + "." + decl
				declared[key] = true
				if syms[prefix+"."+decl] {
					if _, ok := linkAllowlist[key]; ok {
						t.Errorf("%s is linked; drop it from linkAllowlist", key)
					}
					continue
				}
				if _, ok := linkAllowlist[key]; !ok {
					unlinked = append(unlinked, fset.Position(fn.Pos()).String()+": "+key)
				}
			}
		}
	}
	for key, reason := range linkAllowlist {
		if !declared[key] {
			t.Errorf("linkAllowlist names %s, which no non-test file declares", key)
		}
		if strings.TrimSpace(reason) == "" {
			t.Errorf("linkAllowlist gives no reason for %s", key)
		}
	}
	sort.Strings(unlinked)
	for _, u := range unlinked {
		t.Errorf("no binary links %s: delete it, move it into a _test.go file, or allowlist it with a reason", u)
	}
}

type listedPackage struct {
	ImportPath, Name, Dir string
	GoFiles               []string
}

// listPackages returns the root module's packages with the non-test
// files the default build includes.
func listPackages(t *testing.T) []listedPackage {
	out := goTool(t, "", "list", "-json=ImportPath,Name,Dir,GoFiles", "./...")
	var pkgs []listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			return pkgs
		} else if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}
}

// linkedSymbols builds every main package of the root module and the
// benchmark harness in bench/ with inlining off (a function inlined at
// every call site leaves no symbol) and returns their text symbols,
// normalised by linkKey. Key "" holds the union over all binaries; each
// root main package's own symbols are also under its import path.
func linkedSymbols(t *testing.T, pkgs []listedPackage) map[string]map[string]bool {
	dir := t.TempDir()
	goTool(t, "", "build", "-gcflags=all=-l", "-o", dir+string(filepath.Separator), "./...")
	goTool(t, "bench", "build", "-gcflags=all=-l", "-o", filepath.Join(dir, "drabench"), ".")
	linked := map[string]map[string]bool{"": {}}
	add := func(bin, owner string) {
		out := goTool(t, "", "tool", "nm", filepath.Join(dir, bin))
		syms := map[string]bool{}
		for sc := bufio.NewScanner(bytes.NewReader(out)); sc.Scan(); {
			if m := nmText.FindStringSubmatch(sc.Text()); m != nil {
				k := linkKey(m[1])
				syms[k] = true
				linked[""][k] = true
			}
		}
		if owner != "" {
			linked[owner] = syms
		}
	}
	add("drabench", "")
	for _, p := range pkgs {
		if p.Name == "main" {
			add(path.Base(p.ImportPath), p.ImportPath)
		}
	}
	return linked
}

// nmText matches a text (code) symbol line of go tool nm.
var nmText = regexp.MustCompile(`^\s*[0-9a-f]+ [Tt] (.+)$`)

// linkKey reduces a symbol to the declaration it was compiled from:
// instantiations lose their type arguments and pointer receivers their
// parentheses, so "p.(*T[go.shape.int]).M" becomes "p.T.M".
func linkKey(sym string) string {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth > 0, r == '(', r == ')', r == '*':
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// receiverName is the type name of a method's receiver, without its
// pointer or type parameters.
func receiverName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// goTool runs the go command in dir (relative to the root module) and
// returns its standard output.
func goTool(t *testing.T, dir string, args ...string) []byte {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return out
}
