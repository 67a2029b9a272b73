let greedy validity =
  let m = Validity.size validity in
  let rec walk acc pos =
    if pos >= m then List.rev acc
    else
      let stop = Validity.max_end validity pos in
      walk ({ Partition.start_ = pos; stop } :: acc) stop
  in
  Partition.of_spans (walk [] 0)

let layerwise validity =
  let units = Validity.units validity in
  let m = Validity.size validity in
  (* Cut at every layer boundary; further split any layer that does not fit
     the chip in one piece. *)
  let layer_bounds =
    List.concat_map
      (fun (_, idxs) -> match idxs with [] -> [] | first :: _ -> [ first ])
      units.Unit_gen.layer_units
  in
  let bounds = List.sort_uniq compare (layer_bounds @ [ m ]) in
  let rec spans acc = function
    | [] | [ _ ] -> List.rev acc
    | lo :: (hi :: _ as rest) ->
      let rec cover acc pos =
        if pos >= hi then acc
        else
          let stop = min hi (Validity.max_end validity pos) in
          cover ({ Partition.start_ = pos; stop } :: acc) stop
      in
      spans (cover acc lo) rest
  in
  Partition.of_spans (spans [] bounds)
