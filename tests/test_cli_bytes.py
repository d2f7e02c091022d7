"""The full stdout of one small invocation per subcommand, frozen.

Other CLI tests compare two runs of the same code or check a few cells.
These pin every column, its place and the format of each cell: floats by
repr, empty cells for absent values, ";"-joined coordinates.  Long lines
are split into adjacent string literals.
"""

import subprocess
import sys

import pytest

GOLDEN = {
    "criterion-csv": (
        ["criterion", "--format", "csv"],
        "criterion,symbol,p1,p2,r,k,p2_regime,p1_branch,alpha,log_power,partial_sum,"
        "tail_bound,tail_kind,truncation_order,verdict,tolerance\n"
        "kappa,heat:1,2,2,1,10,sub4,gt43,0.0,0.0,0.4254590641196608,1.1027474326068404e-175,"
        "certified,200,finite,1e-08\n"
    ),
    "trace-power-csv": (
        ["trace", "--symbol", "power:3", "--N", "80", "--format", "csv"],
        "symbol,dimension,truncation_order,symbol_sum,symbol_tail,diagonal_quadrature,"
        "quadrature_tol,closed_form,symbol_vs_quadrature,symbol_vs_closed,"
        "quadrature_vs_closed\n"
        "power:3,1,80,1.0517902646406982,9.644689633887581e-06,1.0517902646406978,1e-08,,"
        "4.440892098500626e-16,,\n"
    ),
    "trace-heat-n2-csv": (
        ["trace", "--symbol", "heat:0.7", "--n", "2", "--format", "csv"],
        "symbol,dimension,truncation_order,symbol_sum,symbol_tail,diagonal_quadrature,"
        "quadrature_tol,closed_form,symbol_vs_quadrature,symbol_vs_closed,"
        "quadrature_vs_closed\n"
        "heat:0.7,2,400,0.43444318941654236,2.0258987349535585e-242,0.4344431894165409,1e-08,"
        "0.43444318941654236,1.4432899320127035e-15,0.0,1.4432899320127035e-15\n"
    ),
    "kernel-n2-csv": (
        ["kernel", "--n", "2", "--grid=-1,0.5", "--N", "40", "--format", "csv"],
        "x,y,series,closed_form,abs_error,tail_bound\n"
        "-1.0;-1.0,-1.0;-1.0,0.009567027278914517,0.009567027278914517,0.0,"
        "5.130156789752825e-36\n"
        "-1.0;-1.0,0.5;0.5,0.009107942857278662,0.009107942857278667,5.204170427930421e-18,"
        "5.130156789752825e-36\n"
        "0.5;0.5,-1.0;-1.0,0.009107942857278662,0.009107942857278667,5.204170427930421e-18,"
        "5.130156789752825e-36\n"
        "0.5;0.5,0.5;0.5,0.029985494917312016,0.029985494917312033,1.734723475976807e-17,"
        "5.130156789752825e-36\n"
    ),
    "semigroup-csv": (
        ["semigroup", "--t", "0.5,1", "--format", "csv"],
        "t,symbol_sum,diagonal_quadrature,closed_form,max_abs_discrepancy\n"
        "0.5,0.9595173756674719,0.9595173756674712,0.959517375667472,7.771561172376096e-16\n"
        "1.0,0.4254590641196608,0.42545906411966056,0.4254590641196608,2.220446049250313e-16\n"
    ),
    "norms-json": (
        ["norms", "--degrees", "5,10", "--p", "1,4,inf"],
        "{\n"
        "  \"k\": 10,\n"
        "  \"rows\": [\n"
        "    {\n"
        "      \"computed\": 2.603850889432926,\n"
        "      \"model\": 2.9375697992694754,\n"
        "      \"nu\": 5,\n"
        "      \"p\": \"1\",\n"
        "      \"ratio\": 0.8863962619987652\n"
        "    },\n"
        "    {\n"
        "      \"computed\": 0.6659347710919417,\n"
        "      \"model\": 0.6291501344548553,\n"
        "      \"nu\": 5,\n"
        "      \"p\": \"4\",\n"
        "      \"ratio\": 1.0584671839400612\n"
        "    },\n"
        "    {\n"
        "      \"computed\": 0.5623899268603816,\n"
        "      \"model\": 0.5294992556064597,\n"
        "      \"nu\": 5,\n"
        "      \"p\": \"inf\",\n"
        "      \"ratio\": 1.0621165580605976\n"
        "    },\n"
        "    {\n"
        "      \"computed\": 2.9375697992694754,\n"
        "      \"model\": 2.9375697992694754,\n"
        "      \"nu\": 10,\n"
        "      \"p\": \"1\",\n"
        "      \"ratio\": 1.0\n"
        "    },\n"
        "    {\n"
        "      \"computed\": 0.6291501344548553,\n"
        "      \"model\": 0.6291501344548553,\n"
        "      \"nu\": 10,\n"
        "      \"p\": \"4\",\n"
        "      \"ratio\": 1.0\n"
        "    },\n"
        "    {\n"
        "      \"computed\": 0.5294992556064597,\n"
        "      \"model\": 0.5294992556064597,\n"
        "      \"nu\": 10,\n"
        "      \"p\": \"inf\",\n"
        "      \"ratio\": 1.0\n"
        "    }\n"
        "  ],\n"
        "  \"schema\": 1,\n"
        "  \"subcommand\": \"norms\",\n"
        "  \"tolerance\": 1e-08\n"
        "}\n"
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_stdout_is_frozen(name):
    argv, stdout = GOLDEN[name]
    proc = subprocess.run([sys.executable, "-m", "hermult", *argv],
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == stdout
