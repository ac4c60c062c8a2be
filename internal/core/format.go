package core

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/formats"
	"repro/internal/matrix"
)

// FormatTokens returns the grammar of every name ParseFormat accepts —
// the concrete tokens plus the SELL-C-σ pattern — for command-line help
// and API error messages. The pattern entry is a template, not a literal
// token: any "sell-<C>-<sigma>" with C in [1, formats.MaxChunkHeight] and a
// positive sigma parses.
func FormatTokens() []string {
	return []string{"crs", "csr", "sell-<C>-<sigma> (e.g. sell-32-256)"}
}

// ParseFormat maps a storage-format name to its FormatBuilder — the format
// counterpart of ParseMode, so command-line sweeps can be restricted to one
// scheme. It accepts the builders' canonical Name() spellings:
//
//	"crs" (alias "csr")      → matrix.CSRBuilder{}
//	"sell-<C>-<sigma>"       → formats.SELLBuilder{C, Sigma}, e.g. "sell-32-256"
//
// C must lie in [1, formats.MaxChunkHeight], the range NewSELLCSigma
// accepts, so a bad chunk height fails here rather than at conversion.
// An unknown or malformed name yields an error that enumerates the valid
// tokens (FormatTokens).
func ParseFormat(s string) (matrix.FormatBuilder, error) {
	name := strings.ToLower(strings.TrimSpace(s))
	switch name {
	case "crs", "csr":
		return matrix.CSRBuilder{}, nil
	}
	if rest, ok := strings.CutPrefix(name, "sell-"); ok {
		cStr, sigmaStr, ok := strings.Cut(rest, "-")
		if ok {
			c, errC := strconv.Atoi(cStr)
			sigma, errS := strconv.Atoi(sigmaStr)
			if errC == nil && errS == nil && c >= 1 && c <= formats.MaxChunkHeight && sigma > 0 {
				return formats.SELLBuilder{C: c, Sigma: sigma}, nil
			}
		}
		return nil, fmt.Errorf("core: malformed SELL-C-σ format %q (want sell-<C>-<sigma> with C in [1,%d] and sigma ≥ 1, e.g. sell-32-256)", s, formats.MaxChunkHeight)
	}
	return nil, fmt.Errorf("core: unknown format %q (valid: %s)", s, strings.Join(FormatTokens(), ", "))
}
