"""Ablation study: which pieces of GARCIA matter?

Reproduces the two ablations of the paper at example scale:

* Fig. 3 — adaptive (dual head/tail) encoding vs a shared encoder,
* Fig. 4 — removing individual contrastive granularities (KTCL/SECL/IGCL),

plus a sensitivity mini-sweep of the temperature (Fig. 8 style).

Run with:  python examples/ablation_study.py
"""

from repro.eval import format_float_table
from repro.experiments import fig3_adaptive_encoding, fig4_mgcl_ablation, fig8_temperature
from repro.experiments.common import ExperimentSettings


def main() -> None:
    settings = ExperimentSettings(scale="tiny", embedding_dim=16,
                                  pretrain_epochs=1, finetune_epochs=3, learning_rate=5e-3)

    print("Fig. 3 — adaptive encoding ablation (Sep. A only, example scale)\n")
    fig3 = fig3_adaptive_encoding.run(settings, datasets=["Sep. A"])
    print(format_float_table(fig3.rows))

    print("\nFig. 4 — multi-granularity contrastive learning ablation (Sep. A only)\n")
    fig4 = fig4_mgcl_ablation.run(settings, datasets=["Sep. A"])
    print(format_float_table(fig4.rows))

    print("\nFig. 8 — temperature sensitivity (reduced grid)\n")
    fig8 = fig8_temperature.run(settings, values=(0.05, 0.1, 0.5, 1.0))
    print(format_float_table(fig8.rows))

    print("\nRun `python -m repro.experiments <id>` for the full-grid versions.")


if __name__ == "__main__":
    main()
