package workload

import (
	"bytes"
	"fmt"

	"repro/sp"
)

// FleetClient is one synthetic monitored process for exercising the
// sptraced ingestion service: a named recorded trace plus the live
// recording run's report (the per-stream ground truth a server-side
// replay must reproduce).
type FleetClient struct {
	// Name is the stream name the client should announce.
	Name string
	// Scenario is the workload shape the trace was generated from.
	Scenario string
	// Data is the complete binary SPTR trace.
	Data []byte
	// Report is the recording run's report; len(Report.Races) is the
	// number of race observations a serial replay of Data produces.
	Report sp.Report
}

// FleetTraces generates a fleet of synthetic clients by cycling
// through the scenario registry with per-client seeds derived from
// seed, so every client's trace is distinct but the whole fleet is
// deterministic for (clients, threads, seed). It is the multi-client
// scenario generator behind the sptraced integration tests.
func FleetTraces(clients, threads int, seed int64) ([]FleetClient, error) {
	scs := Scenarios()
	fleet := make([]FleetClient, 0, clients)
	for i := 0; i < clients; i++ {
		sc := scs[i%len(scs)]
		var buf bytes.Buffer
		rep, err := RecordTrace(sc.Build(threads, seed+int64(i)), &buf)
		if err != nil {
			return nil, fmt.Errorf("workload: fleet client %d (%s): %w", i, sc.Name, err)
		}
		fleet = append(fleet, FleetClient{
			Name:     fmt.Sprintf("client-%d-%s", i, sc.Name),
			Scenario: sc.Name,
			Data:     buf.Bytes(),
			Report:   rep,
		})
	}
	return fleet, nil
}

// PlantedFleet generates a fleet in which every client streams the
// identical planted-race trace — the scenario behind the "N clients
// observe the same races, the server reports each once with count N"
// acceptance check. The returned clients share one Data slice.
func PlantedFleet(clients, threads int, seed int64) ([]FleetClient, error) {
	sc, _ := ScenarioByName("planted")
	var buf bytes.Buffer
	rep, err := RecordTrace(sc.Build(threads, seed), &buf)
	if err != nil {
		return nil, fmt.Errorf("workload: planted fleet: %w", err)
	}
	fleet := make([]FleetClient, clients)
	for i := range fleet {
		fleet[i] = FleetClient{
			Name:     fmt.Sprintf("planted-%d", i),
			Scenario: sc.Name,
			Data:     buf.Bytes(),
			Report:   rep,
		}
	}
	return fleet, nil
}
