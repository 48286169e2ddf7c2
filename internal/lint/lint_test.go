package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"

	"repro/internal/lint/analysis"
	"repro/internal/lint/loader"
)

func parseSrc(t *testing.T, src string) (*token.FileSet, []*ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fixture.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parsing fixture: %v", err)
	}
	return fset, []*ast.File{f}
}

// checkSrc type-checks a one-file fixture package against the local
// toolchain's export data, then runs every analyzer unscoped and filters.
func checkSrc(t *testing.T, src string) []analysis.Diagnostic {
	t.Helper()
	fset, files := parseSrc(t, src)
	var imports []string
	for _, imp := range files[0].Imports {
		imports = append(imports, strings.Trim(imp.Path.Value, `"`))
	}
	exports, err := loader.Exports(imports)
	if err != nil {
		t.Fatalf("resolving export data: %v", err)
	}
	pkg, info, err := loader.Check(fset, files, "fixture", nil, loader.FileLookup(exports), "")
	if err != nil {
		t.Fatalf("type-checking fixture: %v", err)
	}
	var diags []analysis.Diagnostic
	for _, a := range Analyzers() {
		pass := &analysis.Pass{Analyzer: a, Fset: fset, Files: files, Pkg: pkg, TypesInfo: info}
		if err := a.Run(pass); err != nil {
			t.Fatalf("analyzer %s: %v", a.Name, err)
		}
		diags = append(diags, pass.Diagnostics()...)
	}
	kept, _ := Filter(fset, files, diags, Names())
	return kept
}

func TestSuppressionSameLine(t *testing.T) {
	kept := checkSrc(t, `package fixture

import "time"

func f() time.Time {
	return time.Now() //serlint:allow detsource fixture reason
}
`)
	if len(kept) != 0 {
		t.Fatalf("same-line directive did not suppress: %v", kept)
	}
}

func TestSuppressionLineAbove(t *testing.T) {
	kept := checkSrc(t, `package fixture

import "time"

func f() time.Time {
	//serlint:allow detsource fixture reason
	return time.Now()
}
`)
	if len(kept) != 0 {
		t.Fatalf("line-above directive did not suppress: %v", kept)
	}
}

func TestSuppressionDocCommentCoversDecl(t *testing.T) {
	kept := checkSrc(t, `package fixture

import "time"

// f reads the clock twice.
//
//serlint:allow detsource fixture reason
func f() time.Duration {
	t0 := time.Now()

	return time.Since(t0)
}
`)
	if len(kept) != 0 {
		t.Fatalf("doc-comment directive did not cover the declaration: %v", kept)
	}
}

func TestSuppressionWrongAnalyzerDoesNotSuppress(t *testing.T) {
	kept := checkSrc(t, `package fixture

import "time"

func f() time.Time {
	return time.Now() //serlint:allow detrange fixture reason
}
`)
	if len(kept) != 1 || kept[0].Analyzer != "detsource" {
		t.Fatalf("directive for another analyzer must not suppress; kept = %v", kept)
	}
}

func TestSuppressionMissingReasonRejected(t *testing.T) {
	kept := checkSrc(t, `package fixture

import "time"

func f() time.Time {
	return time.Now() //serlint:allow detsource
}
`)
	// The reasonless directive must not suppress, and must itself be
	// reported — two findings total.
	var sawFinding, sawProblem bool
	for _, d := range kept {
		switch d.Analyzer {
		case "detsource":
			sawFinding = true
		case "serlint":
			sawProblem = true
			if !strings.Contains(d.Message, "missing its mandatory reason") {
				t.Errorf("problem message = %q, want the mandatory-reason text", d.Message)
			}
		}
	}
	if !sawFinding || !sawProblem {
		t.Fatalf("want the original finding and a directive problem, got %v", kept)
	}
}

func TestSuppressionUnknownAnalyzerRejected(t *testing.T) {
	fset, files := parseSrc(t, `package fixture

//serlint:allow nosuchanalyzer because reasons
var x int
`)
	sups, problems := Directives(fset, files, Names())
	if len(sups) != 0 {
		t.Fatalf("unknown analyzer produced a suppression: %v", sups)
	}
	if len(problems) != 1 || !strings.Contains(problems[0].Message, `unknown analyzer "nosuchanalyzer"`) {
		t.Fatalf("want one unknown-analyzer problem, got %v", problems)
	}
}

func TestDirectiveProblemsAreNotSuppressible(t *testing.T) {
	fset, files := parseSrc(t, `package fixture

//serlint:allow detsource
var x int
`)
	kept, _ := Filter(fset, files, nil, Names())
	if len(kept) != 1 || kept[0].Analyzer != "serlint" {
		t.Fatalf("want the directive problem to survive filtering, got %v", kept)
	}
}

func TestDirectivesRecordWellFormed(t *testing.T) {
	fset, files := parseSrc(t, `package fixture

//serlint:allow detrange commutative counter fold
var x int
`)
	sups, problems := Directives(fset, files, Names())
	if len(problems) != 0 {
		t.Fatalf("unexpected problems: %v", problems)
	}
	if len(sups) != 1 || sups[0].Analyzer != "detrange" || sups[0].Reason != "commutative counter fold" {
		t.Fatalf("suppression = %+v, want detrange with the full reason", sups)
	}
}

func TestInScope(t *testing.T) {
	const mod = "repro"
	cases := []struct {
		analyzer, importPath string
		want                 bool
	}{
		{"detrange", "repro/internal/core", true},
		{"detrange", "repro/internal/verilog", false},
		{"detsource", "repro/internal/simulate", true},
		{"detsource", "repro/internal/serd", false}, // deliberately out of scope
		{"deferunlock", "repro/internal/serd", true},
		{"detrange", "repro/internal/sweep", true},
		{"detrange", "repro/internal/graph", true},
		{"detsource", "repro/internal/sweep", true},
		{"deferunlock", "repro/internal/sweep", true},
		{"bitfloat", "repro/internal/resume", true},
		{"bitfloat", "repro/internal/core", false},
		{"atomiconly", "repro/internal/anything", true}, // "..." scope
		{"ctxflow", "repro", true},
		{"ctxflow", "otaher.example/mod/pkg", false}, // outside the module
		{"detrange", "reprox/internal/core", false},  // prefix, not a path boundary
	}
	for _, c := range cases {
		if got := InScope(c.analyzer, mod, c.importPath); got != c.want {
			t.Errorf("InScope(%s, %s, %s) = %v, want %v", c.analyzer, mod, c.importPath, got, c.want)
		}
	}
}

func TestAnalyzersHaveDocsAndStableNames(t *testing.T) {
	names := map[string]bool{}
	for _, a := range Analyzers() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v is missing Name, Doc, or Run", a)
		}
		if names[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		names[a.Name] = true
		if _, ok := scopes[a.Name]; !ok {
			t.Errorf("analyzer %q has no scope entry", a.Name)
		}
	}
	if names["serlint"] {
		t.Error(`"serlint" is reserved for directive problems and cannot name an analyzer`)
	}
}
