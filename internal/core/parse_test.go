package core

import (
	"strings"
	"testing"
)

// Every token ModeTokens advertises must parse, and the canonical name of
// each mode must round-trip through ParseMode.
func TestParseModeAcceptsEveryToken(t *testing.T) {
	for _, tok := range ModeTokens() {
		if _, err := ParseMode(tok); err != nil {
			t.Errorf("ParseMode(%q): %v", tok, err)
		}
	}
	for _, m := range Modes {
		got, err := ParseMode(m.String())
		if err != nil {
			t.Fatalf("ParseMode(%q): %v", m, err)
		}
		if got != m {
			t.Errorf("ParseMode(%q) = %v", m, got)
		}
	}
	if _, err := ParseMode("  Task "); err != nil {
		t.Errorf("ParseMode should trim and lowercase: %v", err)
	}
}

// A bad mode must name every valid spelling — the error doubles as the
// help text for the -mode flag and the serving API's 400 response.
func TestParseModeErrorEnumeratesTokens(t *testing.T) {
	_, err := ParseMode("bogus")
	if err == nil {
		t.Fatal("ParseMode(bogus) succeeded")
	}
	for _, tok := range ModeTokens() {
		if !strings.Contains(err.Error(), tok) {
			t.Errorf("error %q does not mention token %q", err, tok)
		}
	}
}

// Every token TransportTokens advertises must parse, and the canonical
// name of each kind must round-trip through ParseTransport.
func TestParseTransportAcceptsEveryToken(t *testing.T) {
	for _, tok := range TransportTokens() {
		if _, err := ParseTransport(tok); err != nil {
			t.Errorf("ParseTransport(%q): %v", tok, err)
		}
	}
	for _, k := range TransportKinds {
		got, err := ParseTransport(k.String())
		if err != nil {
			t.Fatalf("ParseTransport(%q): %v", k, err)
		}
		if got != k {
			t.Errorf("ParseTransport(%q) = %v", k, got)
		}
	}
	if _, err := ParseTransport("  Simnet "); err != nil {
		t.Errorf("ParseTransport should trim and lowercase: %v", err)
	}
}

// A bad transport must name every valid spelling — the error doubles as
// the help text for the -transport flag.
func TestParseTransportErrorEnumeratesTokens(t *testing.T) {
	_, err := ParseTransport("bogus")
	if err == nil {
		t.Fatal("ParseTransport(bogus) succeeded")
	}
	for _, tok := range TransportTokens() {
		if !strings.Contains(err.Error(), tok) {
			t.Errorf("error %q does not mention token %q", err, tok)
		}
	}
}

func TestParseFormatErrorEnumeratesTokens(t *testing.T) {
	_, err := ParseFormat("bogus")
	if err == nil {
		t.Fatal("ParseFormat(bogus) succeeded")
	}
	for _, tok := range formatTokens() {
		if !strings.Contains(err.Error(), tok) {
			t.Errorf("error %q does not mention token %q", err, tok)
		}
	}
	// The SELL template is a pattern, not a literal token: concrete
	// instances parse, the template itself does not.
	if _, err := ParseFormat("sell-8-64"); err != nil {
		t.Errorf("ParseFormat(sell-8-64): %v", err)
	}
	if _, err := ParseFormat("csr"); err != nil {
		t.Errorf("ParseFormat(csr): %v", err)
	}
	if _, err := ParseFormat("sell-0-64"); err == nil {
		t.Error("ParseFormat(sell-0-64) should fail")
	}
	// The chunk height is bounded by what the SELL-C-σ kernel accepts.
	if _, err := ParseFormat("sell-64-256"); err != nil {
		t.Errorf("ParseFormat(sell-64-256): %v", err)
	}
	if _, err := ParseFormat("sell-65-256"); err == nil {
		t.Error("ParseFormat(sell-65-256) should fail")
	}
}
