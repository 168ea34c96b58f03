// Lifetime annotation for rill_lint rule R6 (callback lifetime).
//
// RILL_PINNED declares that objects of this class outlive every engine
// callback they schedule (platform-owned, torn down only after the event
// loop stops), so capturing raw `this` in a scheduled/completion callback
// is sound.  The claim is auditable in one place — the class declaration —
// instead of being re-asserted by a waiver comment at every call site.
// Classes that are NOT pinned must either hold the returned TimerId in a
// member and cancel it in their destructor, or carry a per-site
// `// lint: lifetime-ok(<reason>)` waiver.
//
// The macro expands to nothing — it is read by rill_lint (tools/lint),
// which tokenizes raw source, never the preprocessed TU.  It goes between
// the class-key and the name:
//
//   class RILL_PINNED Executor { ... };
#pragma once

#define RILL_PINNED
