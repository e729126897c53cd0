"""Set-up probe: a fresh interpreter imports the package and makes one toy
call to each entry point the ``library`` workload uses.  ``run.py`` times
this script from spawn to exit; that time is the workload's ``setup_s``.

Usage: python3 perfbench/probe.py   (with the repository's src on PYTHONPATH)
"""

import consensus_spectra as cs


def library():
    model = cs.parse_model("ring:n=4,a=0.5")
    closed = cs.full_spectrum(model)
    cs.full_spectrum(model, cs.SpectrumSource.DFT_ORACLE)
    result = cs.design_pipeline(model)
    cs.design_export_dict(model, result, cs.closed_form_R(model))
    cs.minimax_h(closed)
    # figure 7 is the smallest standard figure
    cs.rows_to_csv(cs.figure_dataset(7).rows)
    x0 = cs.uniform_vector(1, model.order)
    cs.run_consensus(model, result.h, x0, max_steps=4, tolerance=1e-300)
    cs.run_consensus(model, result.h, x0, max_steps=4, tolerance=1e-300, dense=True)
    cs.verify_consensus(cs.ring(16, 0.3), cs.design_pipeline(cs.ring(16, 0.3)), trials=1, seed=1)


if __name__ == "__main__":
    library()
