// Package repl implements WAL-shipping replication: a leader publishes its
// durable write-ahead log over HTTP and read-only followers replay it into
// physical replicas of the leader's engine directory.
//
// The unit of replication is the WAL record, in the exact frame encoding
// the storage layer already commits to disk — replication adds transport,
// not a second log format. A follower bootstraps by downloading one
// committed snapshot generation (immutable files first, the manifest
// commit point last), then tails the log with long-polling fetches,
// re-logging every record into its own WAL before applying it. Crash
// recovery therefore falls out of the ordinary open path: a killed
// follower reopens, replays its local log, and resumes the stream from its
// durable (generation, sequence) watermark.
//
// Generations rotate in lockstep: when the leader checkpoints, the
// follower drains the finished generation, takes the same checkpoint
// locally, and continues in the next generation. The leader keeps the
// previous generation's records in memory so a mid-drain follower can
// finish; anything older answers 410 Gone and the follower rebuilds from a
// fresh snapshot. Leader and follower both hold a shard.ShardedEngine of
// one or more shards, replicated as one independent stream per shard.
//
// See the wire-protocol comment in wire.go and the replication section of
// DESIGN.md for the frame format, the resync state machine, and the
// read-your-writes position tokens.
package repl
