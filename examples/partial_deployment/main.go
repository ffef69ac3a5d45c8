// Partial deployment: one Producer host runs the full Sweeper system; several
// Consumer hosts run only the lightweight runtime and consume antibodies the
// Producer distributes (as serialised bundles). The example shows that a
// Consumer that has installed the antibody stops the same worm — and even a
// polymorphic variant — without ever running the heavyweight analysis itself,
// which is the partial-deployment story of Sections 2.1 and 6.
package main

import (
	"fmt"
	"log"

	"sweeper/internal/antibody"
	"sweeper/internal/apps"
	"sweeper/internal/core"
	"sweeper/internal/exploit"
)

func main() {
	log.SetFlags(0)
	spec, err := apps.ByName("cvs")
	if err != nil {
		log.Fatal(err)
	}
	payload, err := exploit.Exploit(spec)
	if err != nil {
		log.Fatal(err)
	}

	// --- Producer host: full Sweeper, gets hit first, generates antibodies. ---
	producerCfg := core.DefaultConfig()
	producer, err := core.New(spec.Name, spec.Image, spec.Options, producerCfg)
	if err != nil {
		log.Fatal(err)
	}
	var distributed [][]byte
	producer.OnAntibody = func(a *antibody.Antibody) {
		// Antibodies are distributed piecemeal, as each analysis step
		// completes; here we serialise them exactly as they would go on the
		// wire to the consumers.
		if data, err := a.Marshal(); err == nil {
			distributed = append(distributed, data)
		}
	}
	for i := 0; i < 10; i++ {
		producer.Submit(exploit.Benign("cvs", i), "client", false)
	}
	producer.Submit(payload, "worm", true)
	if _, err := producer.ServeAll(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("producer: detected and analysed the attack, distributed %d antibody bundles\n", len(distributed))
	fmt.Printf("producer: first VSEF available %v after detection\n", producer.Attacks()[0].TimeToFirstVSEF)

	// --- Consumer host: lightweight runtime only (no analysis steps). ---
	consumerCfg := core.DefaultConfig()
	consumerCfg.Analyses = []string{}
	consumerCfg.ASLRSeed = 777 // a different randomisation than the producer
	consumer, err := core.New(spec.Name, spec.Image, spec.Options, consumerCfg)
	if err != nil {
		log.Fatal(err)
	}

	// The consumer installs the final (most refined) received antibody. VSEFs
	// are position independent, so they apply unchanged despite the different
	// address-space randomisation.
	final, err := antibody.Unmarshal(distributed[len(distributed)-1])
	if err != nil {
		log.Fatal(err)
	}
	if _, err := final.Apply(consumer.Process(), consumer.Proxy()); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("consumer: installed %s\n", final)

	// The worm now targets the consumer with the identical exploit: the input
	// signature drops it at the proxy.
	if consumer.Submit(payload, "worm", true) {
		log.Fatal("consumer accepted the exploit despite the input signature")
	}
	fmt.Println("consumer: identical exploit filtered by the received input signature")

	// A polymorphic variant slips past the signature, but the received VSEF
	// detects it and the consumer's own lightweight runtime recovers.
	variant, err := exploit.ExploitVariant(spec, 2)
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		consumer.Submit(exploit.Benign("cvs", 100+i), "client", false)
	}
	if !consumer.Submit(variant, "worm", true) {
		log.Fatal("variant unexpectedly filtered; cannot demonstrate the VSEF")
	}
	for i := 0; i < 5; i++ {
		consumer.Submit(exploit.Benign("cvs", 200+i), "client", false)
	}
	if _, err := consumer.ServeAll(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("consumer: polymorphic variant handled (%d attack(s) stopped), server still up: %v\n",
		len(consumer.Attacks()), !consumer.Halted())
	fmt.Printf("consumer: served %d benign requests in total\n", consumer.Process().ServedRequests())
}
