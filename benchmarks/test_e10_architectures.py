"""E10 — federated vs integrated resource inventories (Sec. I).

Paper claims: federated systems duplicate resources per DAS; integrated
systems promise "massive cost savings through the reduction of resource
duplication ... reliability improvements with respect to wiring and
connectors"; and virtual gateways unlock the *remaining* savings
(sensor sharing) without giving up encapsulation.

Regenerated table: the four architecture inventories for the paper's
own automotive suite (ABS, X-by-wire, navigation, Pre-Safe, comfort,
dashboard), with a connector-count reliability proxy.
"""

from __future__ import annotations

from repro.analysis import Table
from repro.systems import ArchitectureModel, automotive_requirements


def run_experiment() -> list:
    model = ArchitectureModel(automotive_requirements())
    return model.all_inventories()


def test_e10_architectures(run_once):
    inventories = run_once(run_experiment)

    table = Table("E10: resource inventories of the four architectures",
                  ["architecture", "ECUs", "networks", "wires", "connectors",
                   "sensors", "gateways", "connector FIT proxy"])
    by_name = {}
    for inv in inventories:
        by_name[inv.architecture] = inv
        table.add_row(*inv.as_row(), round(inv.connector_failure_proxy(), 0))
    table.print()

    fed = by_name["federated"]
    strict = by_name["integrated (strict separation)"]
    gw = by_name["integrated + virtual gateways"]
    naive = by_name["integrated + naive bridges"]

    # Shape per the paper's argument:
    # 1. Integration alone slashes ECUs and networks.
    assert strict.ecus < fed.ecus
    assert strict.networks == 1 < fed.networks
    # 2. But without coupling, sensors stay duplicated.
    assert strict.sensors == fed.sensors
    # 3. Gateways eliminate the duplicated sensors...
    assert gw.sensors < strict.sensors
    # 4. ...without adding boxes (gateways are architectural services).
    assert gw.ecus == strict.ecus
    # 5. Wiring/connector reliability proxy improves monotonically.
    assert gw.connectors < strict.connectors < fed.connectors
    # 6. Naive bridges get the same part counts — the difference is E8's
    #    error propagation, not the shopping list.
    assert naive.sensors == gw.sensors and naive.ecus == gw.ecus

    print("\nThe integrated+gateways column keeps federated-style coupling")
    print("control (E8) at integrated-architecture part counts — the")
    print("combination the paper's introduction promises.")
