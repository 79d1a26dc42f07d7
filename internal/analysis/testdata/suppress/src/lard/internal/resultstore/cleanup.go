package resultstore

func remove() error { return nil }

// cleanupPreceding carries a well-formed allow on the line above the
// finding: suppressed, no diagnostics.
func cleanupPreceding() {
	//lint:allow checkederr best-effort removal of a temp file
	remove()
}

// cleanupTrailing carries the allow on the flagged line itself.
func cleanupTrailing() {
	remove() //lint:allow checkederr best-effort removal of a temp file
}

// cleanupMissingReason shows that an allow without a reason does not
// suppress anything and is itself reported.
func cleanupMissingReason() {
	//lint:allow checkederr // want `lint:allow checkederr needs a reason: unjustified suppressions are not allowed`
	remove() // want `error result of remove dropped on a store I/O path`
}

// cleanupUnknownAnalyzer shows that naming a non-existent analyzer is
// reported instead of silently suppressing nothing.
func cleanupUnknownAnalyzer() {
	//lint:allow nosuchcheck stale copy-pasted suppression // want `lint:allow names unknown analyzer nosuchcheck`
	remove() // want `error result of remove dropped on a store I/O path`
}

// cleanupBare shows the fully-empty directive.
func cleanupBare() {
	//lint:allow // want `lint:allow needs an analyzer name and a reason`
	remove() // want `error result of remove dropped on a store I/O path`
}

// cleanupWrongAnalyzer allows a different analyzer: the checkederr
// finding still fires.
func cleanupWrongAnalyzer() {
	//lint:allow ctxflow reason aimed at the wrong check
	remove() // want `error result of remove dropped on a store I/O path`
}
