//go:build linux

package main

import (
	"encoding/binary"
	"math"
	"math/rand"
	"time"

	"sweeper/internal/exploit"
	"sweeper/internal/netproxy"
)

// Every input of a run is derived here from -seed before any clock starts:
// payload bytes, the order they are sent in, arrival times, ASLR seeds. The
// daemons under test receive only these inputs. Nothing in this file runs
// while a phase is being timed, so the generator adds no allocation or GC
// work to the process it shares with the daemons.

// request is one pre-framed request and the reply it must get.
type request struct {
	frame  []byte // 4-byte big-endian length + payload, written as is
	status byte   // expected status byte
	body   []byte // expected reply body for StatusOK, nil otherwise
}

func (r *request) payload() []byte { return r.frame[4:] }

func frameOf(payload []byte) []byte {
	f := make([]byte, 4+len(payload))
	binary.BigEndian.PutUint32(f, uint32(len(payload)))
	copy(f[4:], payload)
	return f
}

// squidGenericReply is what the squid guest sends for a non-FTP request.
const squidGenericReply = "HTTP/1.0 200 OK\r\nX-Cache: MISS from squid\r\n\r\n<html>cached object</html>\r\n"

// squidReply computes the reply the squid guest must produce for a benign
// payload, independently of the guest: ftpBuildTitleUrl answers an FTP URL
// whose user part needs no escaping with "ftp://<user>@ftp.site/", and
// everything else gets the generic cached-object response.
func squidReply(payload []byte) []byte {
	const scheme = "ftp://"
	if len(payload) > len(scheme) && string(payload[:len(scheme)]) == scheme {
		for i := len(scheme); i < len(payload); i++ {
			if payload[i] == '@' {
				return []byte(scheme + string(payload[len(scheme):i]) + "@ftp.site/")
			}
		}
	}
	return []byte(squidGenericReply)
}

func benignRequest(payload []byte) request {
	return request{frame: frameOf(payload), status: netproxy.StatusOK, body: squidReply(payload)}
}

// smallPool is the repo's own benign squid mix (exploit.Benign): ~50-byte
// requests, a third plain HTTP and two thirds short FTP URLs.
func smallPool(rng *rand.Rand, n int) []request {
	pool := make([]request, n)
	for i := range pool {
		pool[i] = benignRequest(exploit.Benign("squid", rng.Intn(10000)))
	}
	return pool
}

// heavyLengths is how many distinct user-part lengths heavyPool draws. The
// guest allocator splits free chunks and never coalesces them, so a stream of
// arbitrary lengths fragments the 512 KiB main arena until malloc returns
// NULL (after ~1 800 requests) and Sweeper handles the NULL dereference as an
// attack. With a few lengths the chunk list converges (~9 KiB per length).
const heavyLengths = 8

// heavyPool is benign FTP URLs whose user part is 1000-2000 lower-case
// letters: nothing to escape, so the guest copies the user part through
// strlen, rfc1738_escape_part and two strcats (~85k guest instructions).
func heavyPool(rng *rand.Rand, n int) []request {
	var lengths [heavyLengths]int
	for i := range lengths {
		// One length per eighth of the range, so that every seed sends the
		// same amount of work to within a few percent.
		lengths[i] = 1000 + (i*1000+rng.Intn(1000))/heavyLengths
	}
	pool := make([]request, n)
	for i := range pool {
		user := make([]byte, lengths[i%heavyLengths])
		for j := range user {
			user[j] = byte('a' + rng.Intn(26))
		}
		pool[i] = benignRequest([]byte("ftp://" + string(user) + "@ftp.example.org/pub/file.tar.gz"))
	}
	return pool
}

// exploitRequest is the canned squid exploit with the status it must draw.
func exploitRequest(status byte) request {
	return request{frame: frameOf(exploit.SquidExploit()), status: status}
}

// sequence draws n indices into a pool of the given size.
func sequence(rng *rand.Rand, n, pool int) []int32 {
	seq := make([]int32, n)
	for i := range seq {
		seq[i] = int32(rng.Intn(pool))
	}
	return seq
}

// poissonSchedule draws arrival offsets of a Poisson process at the given
// rate, up to the given duration.
func poissonSchedule(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	due := make([]time.Duration, 0, int(rate*d.Seconds()*1.1)+16)
	t := 0.0
	for {
		t += -math.Log(1-rng.Float64()) / rate
		at := time.Duration(t * float64(time.Second))
		if at >= d {
			return due
		}
		due = append(due, at)
	}
}
