package textutil

// The rune-at-a-time reference pipeline, for the external tests.
var (
	TokensRunes = tokensRunes
	UniqueRunes = uniqueRunes
)
