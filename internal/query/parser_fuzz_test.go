package query

import "testing"

// FuzzParseExpr feeds arbitrary text to the expression and SIT parsers, the
// query language the serving daemon accepts from HTTP clients. Neither parser
// may panic, and every accepted expression or SIT must survive a round trip
// through its String form unchanged up to Canonical.
func FuzzParseExpr(f *testing.F) {
	for _, seed := range []string{
		// Fig. 7 chain SITs, widths 2 to 4.
		"T2.a | T1 JOIN T2 ON T1.jnext = T2.jprev",
		"T3.a | T1 JOIN T2 ON T1.jnext = T2.jprev JOIN T3 ON T2.jnext = T3.jprev",
		"T4.a | T1 JOIN T2 ON T1.jnext = T2.jprev JOIN T3 ON T2.jnext = T3.jprev JOIN T4 ON T3.jnext = T4.jprev",
		// Serve specs and request expressions.
		"T3.a | T2 JOIN T3 ON T2.jnext = T3.jprev",
		"T1 JOIN T2 ON T1.jnext = T2.jprev",
		// Multi-predicate, lower-case keywords, base table, malformed input.
		"R JOIN S ON R.w = S.x and R.y = S.z",
		"R",
		"R JOIN S ON R.x = ",
		"T.a |",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if spec, err := ParseSIT(s); err == nil {
			text := spec.Table + "." + spec.Attr + " | " + spec.Expr.String()
			back, err := ParseSIT(text)
			if err != nil || back.Canonical() != spec.Canonical() {
				t.Fatalf("ParseSIT(%q) accepted, but %q does not round-trip (err %v)", s, text, err)
			}
		}
		e, err := ParseExpr(s)
		if err != nil {
			return
		}
		text := e.String()
		back, err := ParseExpr(text)
		if err != nil {
			t.Fatalf("ParseExpr(%q) accepted, but its String %q does not re-parse: %v", s, text, err)
		}
		if got, want := back.Canonical(), e.Canonical(); got != want {
			t.Fatalf("round trip of %q via %q: canonical %q, want %q", s, text, got, want)
		}
	})
}
