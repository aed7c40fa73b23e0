package cstrace

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// reachExempt names the functions under internal/ that no binary links
// and that stay anyway. A pattern matches "pkg.Name" or "pkg.Recv.Name"
// (pkg relative to internal/). Only two reasons are accepted: the code
// is an oracle that tests compare reached code against, or the whole
// package exists to support tests.
var reachExempt = []struct{ pattern, reason string }{
	{`^faultio\.`, "test-only package: fault-injecting writers and readers for trace's fault matrix"},
	{`^trace\.ReadPCAP$`, "oracle: pcap import reads back what -mode pcap exports"},
	{`^pcap\.(Reader|NewReader)(\.|$)`, "oracle: the capture-file reader under the pcap import"},
	{`^packet\.(Parser\.DecodeLayers|(Ethernet|IPv4|UDP)\.(DecodeFromBytes|NextLayerType|LayerPayload))$`, "oracle: layer decoder under the pcap import, checked against Serializer"},
	{`^protocol\.InfoRequest\.Unmarshal$`, "oracle: wire decoder the protocol tests round-trip against Marshal"},
	{`^loadtest\.ParseMonitorLine$`, "oracle: parses the monitor lines Run prints"},
}

// TestEveryInternalFunctionIsReached builds every binary in the tree with
// inlining off for module packages and fails on each function or method
// declared under internal/ that none of them links, unless reachExempt
// names it. The linker's dead-code pass is the call graph: a function in
// no binary is run by nothing but tests.
func TestEveryInternalFunctionIsReached(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every binary in the tree")
	}
	// The go command's test cache sees only the files this process
	// opens, not what the go build below reads; reading every source
	// here makes an edit anywhere invalidate a cached pass.
	srcs := map[string][]byte{}
	for _, root := range []string{"cmd", "tools", "bench", "internal"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			b, err := os.ReadFile(path)
			srcs[path] = b
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	bin := t.TempDir()
	const noInline = "-gcflags=cstrace/...=-l"
	goCmd(t, "build", noInline, "-o", bin+string(filepath.Separator), "./cmd/...", "./tools/...")
	goCmd(t, "build", "-C", "bench", noInline, "-o", filepath.Join(bin, "bench.exe"), ".")
	ents, err := os.ReadDir(bin)
	if err != nil {
		t.Fatal(err)
	}
	nm := []string{"tool", "nm"}
	for _, e := range ents {
		nm = append(nm, filepath.Join(bin, e.Name()))
	}
	linked := map[string]bool{}
	for _, line := range strings.Split(goCmd(t, nm...), "\n") {
		if i := strings.Index(line, " cstrace/internal/"); i >= 0 {
			linked[symbolKey(line[i+len(" cstrace/internal/"):])] = true
		}
	}

	exempt := make([]*regexp.Regexp, len(reachExempt))
	used := make([]bool, len(reachExempt))
	for i, x := range reachExempt {
		exempt[i] = regexp.MustCompile(x.pattern)
	}
	var dead []string
	fset := token.NewFileSet()
	for path, src := range srcs {
		if !strings.HasPrefix(path, "internal"+string(filepath.Separator)) {
			continue
		}
		f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		pkg := filepath.ToSlash(filepath.Dir(strings.TrimPrefix(path, "internal"+string(filepath.Separator))))
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Name.Name == "init" || fn.Name.Name == "_" {
				continue
			}
			key := pkg + "." + fn.Name.Name
			if fn.Recv != nil {
				key = pkg + "." + recvName(fn.Recv.List[0].Type) + "." + fn.Name.Name
			}
			if linked[key] {
				continue
			}
			allowed := false
			for i, re := range exempt {
				if re.MatchString(key) {
					allowed, used[i] = true, true
				}
			}
			if !allowed {
				dead = append(dead, fset.Position(fn.Pos()).String()+" "+key)
			}
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Error("linked into no binary: " + d)
	}
	for i, u := range used {
		if !u {
			t.Errorf("reachExempt entry %q exempts nothing; delete it", reachExempt[i].pattern)
		}
	}
}

// goCmd runs the go command from the repository root and returns its
// standard output.
func goCmd(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command("go", args...)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return string(out)
}

var closureSuffix = regexp.MustCompile(`(-fm|\.(func|gowrap|deferwrap)?[0-9]+)+$`)

// symbolKey turns a linker symbol with the "cstrace/internal/" prefix cut
// off ("stats.(*Histogram).Add", "dist.Foo[go.shape.int].func1") into a
// declaration key ("stats.Histogram.Add", "dist.Foo"). Type arguments,
// closure and wrapper suffixes and the pointer-receiver form all go, so a
// value-receiver method matches either of its symbols.
func symbolKey(sym string) string {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0 && r != '(' && r != ')' && r != '*':
			b.WriteRune(r)
		}
	}
	return closureSuffix.ReplaceAllString(b.String(), "")
}

// recvName is a method receiver's base type name: T for T, *T, T[K]
// and *T[K, V].
func recvName(e ast.Expr) string {
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
