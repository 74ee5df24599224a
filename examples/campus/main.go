// Campus reproduces the paper's real deployment (Section V-C): nine
// students from four departments carry phones among eight buildings, and
// every building sends 75 packets per day to the library (L1). It prints
// the Fig. 16 results (success rate, delay distribution, transit-link
// bandwidths) and the Table X routing tables.
//
//	go run repro/examples/campus
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	fmt.Printf("deployment trace: %s\n\n", dtnflow.CampusTrace().Summarize())

	// The registered experiments run the deployment as the catalogue
	// defines it and render the full Fig. 16 and Table X.
	for _, id := range []string{"fig16", "table10"} {
		text, err := dtnflow.RunExperiment(id, dtnflow.ExperimentOptions{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(text)
	}
}
