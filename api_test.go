package flowtune_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// apiAllowlist names the exported functions and methods in internal/ that
// keep no caller in non-test code, each with the reason it stays.
var apiAllowlist = map[string]string{
	"transport.ShardError.Unwrap":           "reached through errors.Is and errors.As, which no file names",
	"telemetry.Lint":                        "the exposition check the server and cmd/flowtuned tests run on /metrics",
	"core.ParallelAllocator.SlotOf":         "the server tests map a flow to its engine slot with it",
	"num.Feasible":                          "the capacity oracle of the core, norm and server tests",
	"num.Problem.SetCapacity":               "the core and experiments tests degrade a link through it",
	"topology.Topology.ToRForRack":          "the server and core tests name a rack's uplink with it",
	"topology.Topology.SpineSwitch":         "the server and core tests name a spine's downlink with it",
	"num.Problem.Invalidate":                "the documented escape hatch of the compiled index's staleness check",
	"transport.AllocClient.ResumeReconnect": "the client half of flowtuned's -snapshot warm restart",
	"sim.Simulator.Processed":               "the root package's simulator benchmarks report events per run with it",
	"workload.IdealHold":                    "the hold-time model the server and workload churn tests feed ChurnEvents",
}

// TestInternalFuncsHaveNonTestCaller fails for every exported function or
// method declared in non-test internal/ code whose name appears in no
// non-test file of the module or of bench/, outside its own declaration. It
// matches names, not types, so it can miss a dead symbol that shares a name
// with a live one, but it never flags a live one; what is reached only by
// dispatch the scan cannot see stays through apiAllowlist.
func TestInternalFuncsHaveNonTestCaller(t *testing.T) {
	type decl struct{ key, pos string }
	var decls []decl
	uses := map[string]int{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		declNames := map[*ast.Ident]bool{}
		for _, n := range f.Decls {
			fd, ok := n.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declNames[fd.Name] = true
			if !fd.Name.IsExported() || !strings.HasPrefix(filepath.ToSlash(path), "internal/") {
				continue
			}
			key := f.Name.Name + "." + fd.Name.Name
			if fd.Recv != nil {
				recv := recvType(fd.Recv.List[0].Type)
				if !ast.IsExported(recv) {
					continue // a method of an unexported type is no API
				}
				key = f.Name.Name + "." + recv + "." + fd.Name.Name
			}
			decls = append(decls, decl{key, fset.Position(fd.Pos()).String()})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declNames[id] {
				uses[id.Name]++
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(decls, func(i, j int) bool { return decls[i].key < decls[j].key })
	allowed := 0
	for _, d := range decls {
		name := d.key[strings.LastIndexByte(d.key, '.')+1:]
		_, listed := apiAllowlist[d.key]
		switch {
		case listed && uses[name] > 0:
			t.Errorf("allowlisted %s (%s) has a caller outside tests now: drop it from apiAllowlist", d.key, d.pos)
		case listed:
			allowed++
		case uses[name] == 0:
			t.Errorf("exported %s (%s) has no caller outside tests: delete it, move it into a _test.go file, or allowlist it with a reason", d.key, d.pos)
		}
	}
	if allowed != len(apiAllowlist) {
		t.Errorf("%d of the %d allowlisted functions are declared: drop the others from apiAllowlist", allowed, len(apiAllowlist))
	}
}

// recvType returns the name of a method receiver's type.
func recvType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
