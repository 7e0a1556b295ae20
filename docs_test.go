package vmmk

import (
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"vmmk/internal/core"
)

// updateDocs regenerates the registry-generated block in EXPERIMENTS.md:
// go test -run TestExperimentsRegistryTableCurrent -update-docs .
var updateDocs = flag.Bool("update-docs", false, "rewrite generated doc sections")

// TestExperimentsRegistryTableCurrent pins the generated experiment/
// parameter table in EXPERIMENTS.md to core.RegistryMarkdown(): the docs
// can never drift from the registry — registering a new experiment or
// changing a parameter default fails this test until the table is
// regenerated with -update-docs.
func TestExperimentsRegistryTableCurrent(t *testing.T) {
	const file = "EXPERIMENTS.md"
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	begin := strings.Index(text, "<!-- registry:begin")
	end := strings.Index(text, "<!-- registry:end -->")
	if begin < 0 || end < 0 || end < begin {
		t.Fatalf("%s: registry markers missing or out of order", file)
	}
	close := strings.Index(text[begin:end], "-->")
	if close < 0 {
		t.Fatalf("%s: unterminated registry:begin comment", file)
	}
	blockStart := begin + close + len("-->\n")
	want := core.RegistryMarkdown()
	if got := text[blockStart:end]; got != want {
		if *updateDocs {
			if err := os.WriteFile(file, []byte(text[:blockStart]+want+text[end:]), 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
		t.Errorf("%s: generated registry table is stale; run\n  go test -run TestExperimentsRegistryTableCurrent -update-docs .\ngot:\n%s\nwant:\n%s", file, got, want)
	}
}

// TestReadmeExperimentIndexCurrent pins README.md's "Experiment index" to
// the registry: one row per core.Specs() id, in registry order, so a newly
// registered experiment fails this test until the index gains its row.
func TestReadmeExperimentIndexCurrent(t *testing.T) {
	const heading = "## Experiment index"
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(data), heading)
	if !ok {
		t.Fatalf("README.md: no %q section", heading)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	row := regexp.MustCompile(`(?m)^\| (E\d+) +\|`)
	var got []string
	for _, m := range row.FindAllStringSubmatch(section, -1) {
		got = append(got, m[1])
	}
	var want []string
	for _, s := range core.Specs() {
		want = append(want, strings.ToUpper(s.ID))
	}
	if !slices.Equal(got, want) {
		t.Errorf("README.md experiment index lists %v, the registry has %v", got, want)
	}
}

// TestDocsMarkdownLinks is the docs-CI link check: every relative link in
// every tracked *.md file must resolve to a file or directory in the
// repository. External URLs are left alone (CI must not depend on the
// network), and intra-document anchors are accepted as long as the file
// half resolves.
func TestDocsMarkdownLinks(t *testing.T) {
	mdFiles, err := filepath.Glob("*.md")
	if err != nil {
		t.Fatal(err)
	}
	if len(mdFiles) == 0 {
		t.Fatal("no markdown files found at the repository root")
	}
	// [text](target) — good enough for the hand-written docs here; code
	// spans containing brackets don't produce false matches in practice
	// because the target must also parse as a path.
	link := regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)
	for _, md := range mdFiles {
		data, err := os.ReadFile(md)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range link.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
				continue // external; not checked offline
			}
			if strings.HasPrefix(target, "/") {
				// Absolute paths only appear when quoting other
				// repositories' layouts (SNIPPETS.md); they are not links
				// into this repository.
				continue
			}
			target = strings.SplitN(target, "#", 2)[0]
			if target == "" {
				continue // pure anchor into the same document
			}
			if _, err := os.Stat(filepath.FromSlash(target)); err != nil {
				t.Errorf("%s: broken relative link %q", md, m[1])
			}
		}
	}
}

// TestDocsExportedSymbolsDocumented enforces the documentation contract
// the docs CI job gates on: every exported top-level symbol in internal/...
// carries a doc comment. go vet checks comment *form* (the name must lead);
// this test checks *presence*, which vet deliberately does not.
func TestDocsExportedSymbolsDocumented(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		pos := func(n ast.Node) string { return fset.Position(n.Pos()).String() }
		for _, decl := range f.Decls {
			switch dd := decl.(type) {
			case *ast.FuncDecl:
				// Methods on unexported receivers never surface in go
				// doc, so only exported receivers are held to the rule.
				if dd.Recv != nil && !exportedReceiver(dd.Recv) {
					continue
				}
				if dd.Name.IsExported() && dd.Doc.Text() == "" {
					t.Errorf("%s: exported func %s has no doc comment", pos(dd), dd.Name.Name)
				}
			case *ast.GenDecl:
				// A doc comment on the grouped decl covers its specs
				// (the idiom const/var blocks here use).
				groupDoc := dd.Doc.Text() != ""
				for _, spec := range dd.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() && !groupDoc && s.Doc.Text() == "" && s.Comment.Text() == "" {
							t.Errorf("%s: exported type %s has no doc comment", pos(s), s.Name.Name)
						}
					case *ast.ValueSpec:
						if !groupDoc && s.Doc.Text() == "" && s.Comment.Text() == "" {
							for _, name := range s.Names {
								if name.IsExported() {
									t.Errorf("%s: exported %s %s has no doc comment",
										pos(s), dd.Tok, name.Name)
								}
							}
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// exportedReceiver reports whether a method's receiver names an exported
// type (unwrapping pointers and generic instantiations).
func exportedReceiver(recv *ast.FieldList) bool {
	if len(recv.List) == 0 {
		return false
	}
	typ := recv.List[0].Type
	for {
		switch tt := typ.(type) {
		case *ast.StarExpr:
			typ = tt.X
		case *ast.IndexExpr:
			typ = tt.X
		case *ast.IndexListExpr:
			typ = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return false
		}
	}
}
