package bench

import (
	"bytes"
	"encoding/json"
	"errors"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// deadcodeAllow lists the functions and methods TestNoDeadCode accepts
// although no other package's non-test code calls them. Keys are
// "<dir>.<Func>" or "<dir>.<Recv>.<Method>", dir relative to the
// module root. Each entry says why it stays: (b) a root benchmark calls
// it, (c) tests check shipped code against it, (d) it validates a type
// that stays, or (f) it is retained until its tests go. Implementing an
// interface, (a), needs no entry: the audit checks it.
var deadcodeAllow = map[string]string{
	// (b) Root benchmarks call these.
	"internal/bitops.Matrix.XnorPopcountAllInto":      "(b) BenchmarkBitops",
	"internal/bitops.NewBitBatch":                     "(b) BenchmarkBitBatch",
	"internal/bitops.PackSamples":                     "(b) BenchmarkBitBatch",
	"internal/bitops.PackSamplesInto":                 "(b) BenchmarkBitBatch",
	"internal/bitops.Vector.Set":                      "(b) every root benchmark builds its inputs with it",
	"internal/bitops.XnorPopcount":                    "(b) BenchmarkBitops",
	"internal/bnn.ReadModel":                          "(b) BenchmarkSerialization; FuzzSerializeRoundTrip",
	"internal/bnn.WriteModel":                         "(b) BenchmarkSerialization; FuzzSerializeRoundTrip",
	"internal/core.CustMapped.Execute":                "(b) BenchmarkStep",
	"internal/core.CustMapped.Plan":                   "(b) BenchmarkStep",
	"internal/core.MapCust":                           "(b) BenchmarkStep; (c) CustBinaryMap twin of PlanCust",
	"internal/crossbar.DefaultDiffConfig":             "(b) BenchmarkStep",
	"internal/energy.CostParams.StaticOpticalPowerMW": "(b) BenchmarkEnergyModel",
	"internal/eval.Report.SortedByName":               "(b) BenchmarkFig7",
	"internal/robust.HardwareModel.Predict":           "(b) BenchmarkHardwareInference",
	"internal/serve.CanarySet.Evaluate":               "(b) BenchmarkLifetime/Probe",
	"internal/sim.PlacementEvaluator.HitRate":         "(b) BenchmarkPlacerSearch reports cache-hit-%",
	"internal/trace.Recorder.Reset":                   "(b) BenchmarkTrace",

	// (c) Tests check shipped code against these references.
	"internal/bitops.AndPopcount":            "(c) ideal analog column count the crossbar tests decode against",
	"internal/bitops.Matrix.BipolarMatVec":   "(c) per-sample reference for BipolarSignBatchInto and the mapped Eq. (1) outputs",
	"internal/bitops.Vector.Get":             "(c) per-bit reference the word-wise kernels are checked against",
	"internal/compiler.Region.ResolveTile":   "(c) inverse of relTile in FuzzRegionRelTile",
	"internal/core.CustMapped.ResetStats":    "(c) TestStatsContrast pins PlanCust's row activations on the twin",
	"internal/core.CustMapped.Stats":         "(c) TestStatsContrast pins PlanCust's row activations on the twin",
	"internal/core.TacitMapped.ExecuteMMM":   "(c) WDM-batched TacitMap pass, pinned against ExecuteInto by TestTacitMMMMatchesExecute",
	"internal/core.TacitMapped.ResetStats":   "(c) TestStatsContrast pins PlanTacit's VMM count",
	"internal/core.TacitMapped.Stats":        "(c) TestStatsContrast pins PlanTacit's VMM count",
	"internal/crossbar.Array.EffectiveBits":  "(c) faulted VMMs are checked against the stuck-cell matrix",
	"internal/device.EPCMCell.Age":           "(c) per-cell ePCM model behind crossbar's flat planes (plane_test)",
	"internal/device.EPCMCell.Conductance":   "(c) per-cell ePCM model behind crossbar's flat planes (plane_test)",
	"internal/device.EPCMCell.ReadCurrent":   "(c) per-cell ePCM model behind crossbar's flat planes (plane_test)",
	"internal/device.NewEPCMCell":            "(c) per-cell ePCM model behind crossbar's flat planes (plane_test)",
	"internal/device.NewOPCMCell":            "(c) per-cell oPCM model behind crossbar's flat planes (plane_test)",
	"internal/device.OPCMCell.Transmittance": "(c) per-cell oPCM model behind crossbar's flat planes (plane_test)",
	"internal/trace.Recorder.Events":         "(c) read side of the recorder: sim, serve and eval trace tests check spans with it",
	"internal/trace.Recorder.Name":           "(c) read side of the recorder: sim, serve and eval trace tests check spans with it",
	"internal/trace.Recorder.Processes":      "(c) read side of the recorder: sim, serve and eval trace tests check spans with it",
	"internal/trace.Recorder.Tracks":         "(c) read side of the recorder: sim, serve and eval trace tests check spans with it",

	// (d) Validate methods of types that stay.
	"internal/arch.DesignSpec.Validate":             "(d)",
	"internal/compiler.Region.Validate":             "(d)",
	"internal/crossbar.IRDropModel.Validate":        "(d)",
	"internal/energy.AreaParams.Validate":           "(d)",
	"internal/isa.Instruction.Validate":             "(d)",
	"internal/photonics.TransmitterConfig.Validate": "(d)",

	// (f) Retained for now: the named tests, which the regression floor
	// keeps, are their only callers. Delete each with its tests.
	"internal/bitops.BipolarDot":                               "(f) bitops vector, matrix, flat and blit tests",
	"internal/bitops.Concat":                                   "(f) bitops vector, matrix, flat and blit tests",
	"internal/bitops.FromBipolar":                              "(f) bitops vector, matrix, flat and blit tests",
	"internal/bitops.FromBools":                                "(f) bitops vector, matrix, flat and blit tests",
	"internal/bitops.Interleave":                               "(f) bitops vector, matrix, flat and blit tests",
	"internal/bitops.Matrix.Col":                               "(f) bitops vector, matrix, flat and blit tests",
	"internal/bitops.Matrix.ColInto":                           "(f) bitops vector, matrix, flat and blit tests",
	"internal/bitops.MatrixFromRows":                           "(f) bitops vector, matrix, flat and blit tests",
	"internal/bitops.Parse":                                    "(f) bitops vector, matrix, flat and blit tests",
	"internal/bitops.Vector.And":                               "(f) bitops vector, matrix, flat and blit tests",
	"internal/bitops.Vector.AndInto":                           "(f) bitops vector, matrix, flat and blit tests",
	"internal/bitops.Vector.Bipolar":                           "(f) bitops vector, matrix, flat and blit tests",
	"internal/bitops.Vector.Bools":                             "(f) bitops vector, matrix, flat and blit tests",
	"internal/bitops.Vector.Clear":                             "(f) bitops vector, matrix, flat and blit tests",
	"internal/bitops.Vector.Clone":                             "(f) bitops vector, matrix, flat and blit tests",
	"internal/bitops.Vector.CopyFrom":                          "(f) bitops vector, matrix, flat and blit tests",
	"internal/bitops.Vector.Equal":                             "(f) bitops vector, matrix, flat and blit tests",
	"internal/bitops.Vector.Not":                               "(f) bitops vector, matrix, flat and blit tests",
	"internal/bitops.Vector.NotInto":                           "(f) bitops vector, matrix, flat and blit tests",
	"internal/bitops.Vector.Or":                                "(f) bitops vector, matrix, flat and blit tests",
	"internal/bitops.Vector.OrInto":                            "(f) bitops vector, matrix, flat and blit tests",
	"internal/bitops.Vector.SetFromBipolar":                    "(f) bitops vector, matrix, flat and blit tests",
	"internal/bitops.Vector.Slice":                             "(f) bitops vector, matrix, flat and blit tests",
	"internal/bitops.Vector.SliceInto":                         "(f) bitops vector, matrix, flat and blit tests",
	"internal/bitops.Vector.Xnor":                              "(f) bitops vector, matrix, flat and blit tests",
	"internal/bitops.Vector.XnorInto":                          "(f) bitops vector, matrix, flat and blit tests",
	"internal/bitops.Vector.Xor":                               "(f) bitops vector, matrix, flat and blit tests",
	"internal/bitops.Vector.XorInto":                           "(f) bitops vector, matrix, flat and blit tests",
	"internal/crossbar.Array.ADCStepsPerVMM":                   "(f) TestADCStepsPerVMM",
	"internal/crossbar.Array.ColumnMap":                        "(f) column-repair tests",
	"internal/crossbar.Array.MaxPopcountError":                 "(f) TestMaxPopcountErrorBound; repair",
	"internal/crossbar.Array.PlanRepair":                       "(f) column-repair tests",
	"internal/crossbar.Array.RepairEffectiveness":              "(f) column-repair tests",
	"internal/crossbar.Array.VMMWithIRDrop":                    "(f) IR-drop tests and the ideal goldens",
	"internal/crossbar.Array.WorstCaseAttenuation":             "(f) IR-drop tests",
	"internal/crossbar.IRDropModel.MaxCleanArraySize":          "(f) IR-drop tests",
	"internal/device.OPCMCell.Photocurrent":                    "(f) oPCM device tests",
	"internal/device.OPCMParams.ExtinctionRatioDB":             "(f) oPCM device tests",
	"internal/device.OPCMParams.PhotocurrentFrom":              "(f) oPCM device tests",
	"internal/device.OPCMParams.SeparationSNR":                 "(f) oPCM device tests",
	"internal/photonics.NewReceiver":                           "(f) WDM frame and receiver tests",
	"internal/photonics.Receiver.Demodulate":                   "(f) WDM frame and receiver tests",
	"internal/photonics.TransmitterConfig.Modulate":            "(f) WDM frame and receiver tests",
	"internal/photonics.TransmitterConfig.WorstCaseEyeOpening": "(f) WDM frame and receiver tests",
}

// maxRetained caps the (f) entries of deadcodeAllow: a change may
// delete retained code but not retain more. Lower it with each batch.
const maxRetained = 44

// listedPkg is the part of `go list -json` output the audit reads.
type listedPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Standard   bool
}

// TestNoDeadCode type-checks the non-test Go files of this module and
// of the nested e2ebench module and fails on code no command reaches:
//   - an exported function or method under internal/ that no other
//     package references, unless it implements an interface (one
//     declared in the module or in a standard package it imports);
//   - an unexported package-level function nothing references.
//
// Test files do not count as callers; deadcodeAllow carries the
// exceptions, each with its reason, and at most maxRetained of them
// are (f).
func TestNoDeadCode(t *testing.T) {
	retained := 0
	for _, why := range deadcodeAllow {
		if strings.HasPrefix(why, "(f)") {
			retained++
		}
	}
	if retained > maxRetained {
		t.Errorf("deadcodeAllow retains %d (f) entries, more than maxRetained = %d", retained, maxRetained)
	}
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []listedPkg
	seen := map[string]bool{}
	for _, dir := range []string{root, filepath.Join(root, "e2ebench")} {
		listed, err := goList(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range listed {
			if !p.Standard && !seen[p.ImportPath] {
				seen[p.ImportPath] = true
				pkgs = append(pkgs, p)
			}
		}
	}

	a := newAudit()
	for _, p := range pkgs {
		if err := a.check(p); err != nil {
			t.Fatal(err)
		}
	}
	var dead []string
	for _, f := range a.findings(root) {
		if _, ok := deadcodeAllow[f.key]; ok {
			delete(a.unusedAllow, f.key)
			continue
		}
		dead = append(dead, f.String())
	}
	sort.Strings(dead)
	if len(dead) > 0 {
		t.Errorf("%d functions no command reaches (delete them, or allow-list one with its reason):\n\t%s",
			len(dead), strings.Join(dead, "\n\t"))
	}
	var stale []string
	for k := range a.unusedAllow {
		stale = append(stale, k)
	}
	sort.Strings(stale)
	if len(stale) > 0 {
		t.Errorf("allow-list entries that no longer match a finding: %s", strings.Join(stale, ", "))
	}
}

// goList returns the non-test Go packages dir's module builds, with
// their dependencies listed before them.
func goList(dir string) ([]listedPkg, error) {
	cmd := exec.Command("go", "list", "-deps", "-json", "./...")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, errors.New("go list in " + dir + ": " + err.Error() + ": " + stderr.String())
	}
	var pkgs []listedPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			return pkgs, nil
		} else if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
}

type finding struct {
	key string
	pos token.Position
	why string
}

func (f finding) String() string { return f.key + " (" + f.why + ") at " + f.pos.String() }

type decl struct {
	fn  *types.Func
	pos token.Pos
}

// audit type-checks module packages in dependency order with one
// importer, so an object has the same identity in every package that
// uses it.
type audit struct {
	fset  *token.FileSet
	std   types.Importer
	pkgs  map[string]*types.Package
	decls []decl
	// refs maps a function to the packages that reference it, a
	// function's references to itself left out.
	refs        map[*types.Func]map[*types.Package]bool
	unusedAllow map[string]bool
}

func newAudit() *audit {
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	a := &audit{
		fset:        fset,
		std:         importer.ForCompiler(fset, "source", nil),
		pkgs:        map[string]*types.Package{},
		refs:        map[*types.Func]map[*types.Package]bool{},
		unusedAllow: map[string]bool{},
	}
	for k := range deadcodeAllow {
		a.unusedAllow[k] = true
	}
	return a
}

func (a *audit) Import(path string) (*types.Package, error) {
	if p, ok := a.pkgs[path]; ok {
		return p, nil
	}
	return a.std.Import(path)
}

func (a *audit) check(p listedPkg) error {
	var files []*ast.File
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(a.fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Defs: map[*ast.Ident]types.Object{},
		Uses: map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: a}
	pkg, err := conf.Check(p.ImportPath, a.fset, files, info)
	if err != nil {
		return err
	}
	a.pkgs[p.ImportPath] = pkg
	for _, f := range files {
		for _, d := range f.Decls {
			var self *types.Func
			if fd, ok := d.(*ast.FuncDecl); ok {
				self, _ = info.Defs[fd.Name].(*types.Func)
				if self != nil {
					a.decls = append(a.decls, decl{self, fd.Name.Pos()})
				}
			}
			ast.Inspect(d, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				fn, ok := info.Uses[id].(*types.Func)
				if !ok {
					return true
				}
				fn = fn.Origin()
				if fn == self {
					return true
				}
				if a.refs[fn] == nil {
					a.refs[fn] = map[*types.Package]bool{}
				}
				a.refs[fn][pkg] = true
				return true
			})
		}
	}
	return nil
}

// interfaces returns every named interface declared in a checked
// package or in a package one of them imports, and error.
func (a *audit) interfaces() []*types.Interface {
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	visited := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if visited[p] {
			return
		}
		visited[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				ifaces = append(ifaces, it)
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, p := range a.pkgs {
		walk(p)
	}
	return ifaces
}

// implementsInterface reports whether method m satisfies a method of
// one of ifaces for its receiver type or a pointer to it.
func implementsInterface(m *types.Func, ifaces []*types.Interface) bool {
	recv := m.Type().(*types.Signature).Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.TypeParams().Len() > 0 {
		return false
	}
	for _, it := range ifaces {
		has := false
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == m.Name() {
				has = true
				break
			}
		}
		if has && (types.Implements(named, it) || types.Implements(types.NewPointer(named), it)) {
			return true
		}
	}
	return false
}

func (a *audit) findings(root string) []finding {
	const module = "einsteinbarrier"
	ifaces := a.interfaces()
	var out []finding
	for _, d := range a.decls {
		fn := d.fn
		path := fn.Pkg().Path()
		rel := strings.TrimPrefix(strings.TrimPrefix(path, module), "/")
		if rel == "" {
			rel = "."
		}
		sig := fn.Type().(*types.Signature)
		key := rel + "." + fn.Name()
		if sig.Recv() != nil {
			recv := sig.Recv().Type()
			if ptr, ok := recv.(*types.Pointer); ok {
				recv = ptr.Elem()
			}
			if named, ok := recv.(*types.Named); ok {
				key = rel + "." + named.Obj().Name() + "." + fn.Name()
			}
		}
		pos := a.fset.Position(d.pos)
		if r, err := filepath.Rel(root, pos.Filename); err == nil {
			pos.Filename = r
		}
		refs := a.refs[fn]
		switch {
		case fn.Exported() && strings.HasPrefix(rel, "internal/"):
			cross := false
			for p := range refs {
				if p != fn.Pkg() {
					cross = true
				}
			}
			if !cross && !(sig.Recv() != nil && implementsInterface(fn, ifaces)) {
				out = append(out, finding{key, pos, "exported, no caller outside its package"})
			}
		case !fn.Exported() && sig.Recv() == nil && len(refs) == 0 &&
			fn.Name() != "init" && fn.Name() != "main" && fn.Name() != "_":
			out = append(out, finding{key, pos, "unexported, no caller"})
		}
	}
	return out
}
