"""REPRO003 fixtures: device/host charging calls must name a stage."""


class TestStageAccounting:
    def test_launch_without_stage_flagged(self, findings_for):
        findings = findings_for(
            """
            def scan(dev, kernel):
                dev.launch(kernel)
            """
        )
        assert [f.rule_id for f in findings] == ["REPRO003"]
        assert "launch" in findings[0].message

    def test_charge_ops_without_stage_flagged(self, rule_ids_for):
        assert rule_ids_for(
            """
            def bill(host, n):
                host.charge_ops(n)
            """
        ) == ["REPRO003"]

    def test_transfer_without_stage_flagged(self, rule_ids_for):
        assert rule_ids_for(
            """
            def upload(dev, arr):
                return dev.to_device(arr, label="queries")
            """
        ) == ["REPRO003"]

    def test_explicit_none_stage_flagged(self, rule_ids_for):
        # stage=None defeats accounting just as surely as omitting it.
        assert rule_ids_for(
            """
            def scan(dev, kernel):
                dev.launch(kernel, stage=None)
            """
        ) == ["REPRO003"]

    def test_stage_keyword_is_fine(self, rule_ids_for):
        assert rule_ids_for(
            """
            def scan(dev, kernel):
                dev.launch(kernel, stage="match")
            """
        ) == []

    def test_a_stage_scope_excuses_nothing(self, rule_ids_for):
        # There is no ambient stage to fall back on: the calls would raise.
        assert rule_ids_for(
            """
            def scan(dev, kernel, arr):
                with dev.stage("match"):
                    dev.to_device(arr, label="queries")
                    dev.launch(kernel)
            """
        ) == ["REPRO003", "REPRO003"]

    def test_unrelated_launch_name_still_needs_stage(self, rule_ids_for):
        # The rule keys on method names, not receiver types: any .launch
        # in src/ is part of the accounting surface by convention.
        assert rule_ids_for(
            """
            def go(rocket):
                rocket.launch()
            """
        ) == ["REPRO003"]
