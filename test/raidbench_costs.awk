# Prints "SEED WORKLOAD METRIC VALUE UNIT" for the pinned cost metrics
# of one raidbench run (see test/dune); SEED comes from -v seed=N.
/^[a-z]+-[0-9]+  \(/ { workload = $1 }
workload != "serve-16" && ($1 == "alloc_words_per_txn" || $1 == "gc.promoted_words_per_txn" \
  || $1 == "gc.minor_collections_per_ktxn") { print seed, workload, $1, $2, $3 }
