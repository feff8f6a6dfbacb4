package eccparity

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// lintedDocs are the markdown files the docs-lint CI step keeps honest:
// every local link target must exist and every documented CLI flag must
// still be defined by a cmd/* binary.
var lintedDocs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "CHANGES.md"}

var mdLinkRE = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// TestMarkdownLinks verifies every non-external markdown link in the
// linted docs: relative targets must exist on disk, and #anchors (bare or
// trailing) must match a heading's GitHub-style slug in the target file.
func TestMarkdownLinks(t *testing.T) {
	for _, doc := range lintedDocs {
		body, err := os.ReadFile(doc)
		if err != nil {
			t.Fatalf("%s: %v", doc, err)
		}
		for _, m := range mdLinkRE.FindAllStringSubmatch(string(body), -1) {
			target := m[1]
			if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") ||
				strings.HasPrefix(target, "mailto:") {
				continue
			}
			path, anchor, _ := strings.Cut(target, "#")
			file := doc
			if path != "" {
				file = filepath.Join(filepath.Dir(doc), path)
				if _, err := os.Stat(file); err != nil {
					t.Errorf("%s: broken link %q: %v", doc, target, err)
					continue
				}
			}
			if anchor != "" && strings.HasSuffix(file, ".md") {
				if !hasAnchor(t, file, anchor) {
					t.Errorf("%s: link %q: no heading slugs to %q in %s", doc, target, anchor, file)
				}
			}
		}
	}
}

// hasAnchor reports whether any heading in the markdown file slugifies to
// anchor (GitHub rules, simplified: lowercase, punctuation dropped,
// spaces → hyphens).
func hasAnchor(t *testing.T, file, anchor string) bool {
	t.Helper()
	body, err := os.ReadFile(file)
	if err != nil {
		t.Fatalf("%s: %v", file, err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if !strings.HasPrefix(line, "#") {
			continue
		}
		heading := strings.TrimLeft(line, "#")
		if slugify(heading) == strings.ToLower(anchor) {
			return true
		}
	}
	return false
}

func slugify(heading string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(strings.TrimSpace(heading)) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-':
			b.WriteRune(r)
		case r == ' ':
			b.WriteByte('-')
		}
	}
	return b.String()
}

// Binaries whose fenced-block invocations are flag-checked, and the Go
// toolchain flags that may legitimately appear in docs without being
// defined by any cmd/* binary.
var (
	binaryLineRE = regexp.MustCompile(`(^|[ /])(eccsim|eccsimd|tracegen)( |$)`)
	flagTokenRE  = regexp.MustCompile(`(^|\s)(-[a-z][a-z0-9-]*)`)
	codeSpanRE   = regexp.MustCompile("`([^`]+)`")
	flagDefRE    = regexp.MustCompile(`(?:flag|fs)\.(?:String|Int64|Int|Bool|Float64|Duration)(?:Var)?\((?:&[^,]+,\s*)?"([a-z][a-z0-9-]*)"`)

	goToolFlags = map[string]bool{
		"-race": true, "-bench": true, "-benchmem": true, "-benchtime": true,
		"-run": true, "-v": true, "-count": true, "-cpu": true, "-top": true,
	}
)

// definedFlags collects every flag name registered by the cmd/* binaries
// (including the shared internal/cliflags set), prefixed with "-".
func definedFlags(t *testing.T) map[string]bool {
	t.Helper()
	defined := map[string]bool{}
	sources, err := filepath.Glob("cmd/*/*.go")
	if err != nil {
		t.Fatal(err)
	}
	sources = append(sources, "internal/cliflags/cliflags.go")
	for _, src := range sources {
		body, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range flagDefRE.FindAllStringSubmatch(string(body), -1) {
			defined["-"+m[1]] = true
		}
	}
	if len(defined) == 0 {
		t.Fatal("no flag definitions found under cmd/* — the extraction regex is broken")
	}
	return defined
}

// TestDocumentedFlagsExist greps the linted docs for CLI flags — inline
// code spans that lead with a dash, and fenced-block invocations of the
// repo's binaries — and fails if any mentioned flag is no longer defined
// by a cmd/* binary. This is the stale-flag check: renaming or deleting a
// flag without updating the docs breaks CI.
func TestDocumentedFlagsExist(t *testing.T) {
	defined := definedFlags(t)
	check := func(doc string, line int, token string) {
		if !goToolFlags[token] && !defined[token] {
			t.Errorf("%s:%d: documented flag %q is not defined by any cmd/* binary", doc, line, token)
		}
	}
	for _, doc := range lintedDocs {
		body, err := os.ReadFile(doc)
		if err != nil {
			t.Fatalf("%s: %v", doc, err)
		}
		inFence := false
		for i, line := range strings.Split(string(body), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				inFence = !inFence
				continue
			}
			if inFence {
				// Only lines invoking one of the repo's binaries are
				// flag-checked; go test/tool lines are out of scope.
				if binaryLineRE.MatchString(line) && !strings.Contains(line, "go test") {
					for _, m := range flagTokenRE.FindAllStringSubmatch(line, -1) {
						check(doc, i+1, m[2])
					}
				}
				continue
			}
			for _, span := range codeSpanRE.FindAllStringSubmatch(line, -1) {
				if !strings.HasPrefix(span[1], "-") {
					continue
				}
				for _, m := range flagTokenRE.FindAllStringSubmatch(span[1], -1) {
					check(doc, i+1, m[2])
				}
			}
		}
	}
}
