package core

import (
	"context"
	"math/big"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/lint"
	"repro/internal/pipeline"
	"repro/internal/x509cert"
)

func TestAnalyzerLintDER(t *testing.T) {
	a := NewAnalyzer()
	caKey, _ := x509cert.GenerateKey(81)
	leafKey, _ := x509cert.GenerateKey(82)
	tpl := &x509cert.Template{
		SerialNumber: big.NewInt(1),
		Issuer:       x509cert.SimpleDN(x509cert.TextATV(x509cert.OIDCommonName, "Core CA")),
		Subject:      x509cert.SimpleDN(x509cert.TextATV(x509cert.OIDOrganizationName, "Bad\x00Org")),
		NotBefore:    time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC),
		NotAfter:     time.Date(2025, 4, 1, 0, 0, 0, 0, time.UTC),
	}
	der, err := x509cert.Build(tpl, caKey, leafKey)
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.LintDER(der, lint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Noncompliant() {
		t.Fatal("NUL-bearing certificate must be noncompliant")
	}
	// PEM path.
	results, err := a.LintPEM(x509cert.EncodePEM(der), lint.Options{})
	if err != nil || len(results) != 1 || !results[0].Noncompliant() {
		t.Fatalf("PEM lint: %v", err)
	}
}

func TestAnalyzerMeasureCorpus(t *testing.T) {
	a := NewAnalyzer()
	res, err := a.MeasureCorpus(context.Background(), corpus.Config{Size: 300, Seed: 5}, lint.Options{}, pipeline.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Measurement.Results) < 300 {
		t.Fatalf("results %d", len(res.Measurement.Results))
	}
}

func TestAnalyzerLibraryAnalysis(t *testing.T) {
	a := NewAnalyzer()
	t4, t5, err := a.LibraryAnalysis()
	if err != nil {
		t.Fatal(err)
	}
	if len(t4) == 0 || len(t5) == 0 {
		t.Fatal("empty analysis")
	}
}

func TestAnalyzerRules(t *testing.T) {
	if got := len(NewAnalyzer().Rules()); got != 95 {
		t.Fatalf("rules %d", got)
	}
}

func TestAnalyzerRejectsGarbage(t *testing.T) {
	a := NewAnalyzer()
	if _, err := a.LintDER([]byte{0x00, 0x01}, lint.Options{}); err == nil {
		t.Fatal("garbage must be rejected")
	}
}
